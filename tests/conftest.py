"""Shared fixtures and seeded random-instance generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nsgames import (
    Correlation,
    JointDistribution,
    anticorrelation_game,
    chsh_game,
    example_snos_strategy,
    marginal,
    pr_box,
    strict_subsets,
)
from nsgames._mixedradix import decode, encode, project, table_size
from nsgames.repair import _certificate_distance

F = Fraction


@pytest.fixture(scope="session")
def a3():
    return anticorrelation_game()


@pytest.fixture(scope="session")
def chsh():
    return chsh_game()


@pytest.fixture(scope="session")
def a3_strategy():
    return example_snos_strategy()


@pytest.fixture(scope="session")
def pr():
    return pr_box()


# --- seeded generators --------------------------------------------------------


def rand_dist(rng: random.Random, n: int, denom: int = 64) -> tuple[Fraction, ...]:
    """A random exact probability vector with small denominators."""
    weights = [rng.randrange(0, denom) for _ in range(n)]
    if sum(weights) == 0:
        weights[-1] = 1
    total = sum(weights)
    return tuple(F(w, total) for w in weights)


def random_correlation(rng: random.Random, inputs, outputs, scale=F(1)) -> Correlation:
    """Entries i.i.d. uniform on a small grid, then scaled (not normalized)."""
    n = table_size(inputs) * table_size(outputs)
    dens = tuple(F(rng.randrange(0, 32), 32) * scale for _ in range(n))
    return Correlation(tuple(inputs), tuple(outputs), dens)


def random_snos_correlation(rng: random.Random, inputs, outputs) -> Correlation:
    """A generic SNOS member: a raw random table scaled into the polytope."""
    from nsgames import is_snos, minimal_dominating_marginal

    raw = random_correlation(rng, inputs, outputs)
    players = len(inputs)
    worst = F(0)
    for subset in strict_subsets(players):
        bound = minimal_dominating_marginal(raw, subset)
        for x_i in range(bound.n_inputs):
            worst = max(worst, bound.row_sum(x_i))
    if worst > 1:
        shrink = F(rng.randrange(8, 33), 32)  # land strictly inside on occasion
        dens = tuple(v / worst * shrink for v in raw.densities)
        raw = Correlation(raw.input_alphabets, raw.output_alphabets, dens)
    assert is_snos(raw).member
    return raw


def random_deterministic_mixture(rng: random.Random, inputs, outputs, parts=3) -> Correlation:
    """A random classical (hence NS) correlation: mixture of deterministic maps."""
    players = len(inputs)
    n_x, n_a = table_size(inputs), table_size(outputs)
    weights = rand_dist(rng, parts)
    dens = [F(0)] * (n_x * n_a)
    for part in range(parts):
        maps = [
            [rng.randrange(outputs[i]) for _ in range(inputs[i])] for i in range(players)
        ]
        for x in range(n_x):
            x_tup = decode(x, tuple(inputs))
            a = encode(tuple(maps[i][x_tup[i]] for i in range(players)), tuple(outputs))
            dens[x * n_a + a] += weights[part]
    return Correlation(tuple(inputs), tuple(outputs), tuple(dens))


def random_ns_correlation(rng: random.Random, inputs, outputs) -> Correlation:
    """NS member: deterministic mixture, sometimes blended with a unit box."""
    base = random_deterministic_mixture(rng, inputs, outputs)
    if len(inputs) == 2 and tuple(inputs) == (2, 2) and tuple(outputs) == (2, 2) and rng.random() < 0.5:
        box = pr_box()
        lam = F(rng.randrange(0, 33), 32)
        dens = tuple(
            lam * a + (1 - lam) * b for a, b in zip(box.densities, base.densities)
        )
        return Correlation(base.input_alphabets, base.output_alphabets, dens)
    return base


def random_joint(rng: random.Random, inputs, outputs, denom=64) -> JointDistribution:
    n = table_size(inputs) * table_size(outputs)
    return JointDistribution(tuple(inputs), tuple(outputs), rand_dist(rng, n, denom))


def subset_conditional_table(correlation: Correlation, subset) -> tuple[Fraction, ...]:
    """Q_I(a_I|x_I) read off an NS correlation (whose marginals are local)."""
    table_full = marginal(correlation, subset)
    proj = project(correlation.input_alphabets, subset.members)
    in_sizes = tuple(correlation.input_alphabets[i] for i in subset.members)
    n_a_i = table_full.n_subset_outputs
    out = [F(0)] * (table_size(in_sizes) * n_a_i)
    for x in range(correlation.n_inputs):
        row = proj[x] * n_a_i
        for a_i in range(n_a_i):
            out[row + a_i] = table_full.entries[x * n_a_i + a_i]
    return tuple(out)


def subset_certificate_distance(joint: JointDistribution, target, subset, table) -> Fraction:
    """(1/2) || joint_{A_I X} - target.Q_I ||_1 for the subset I, exactly."""
    return _certificate_distance(
        joint.entries, joint.input_alphabets, joint.output_alphabets, subset.members, target, table
    )
