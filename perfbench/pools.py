"""Seeded inputs for the benchmark.

Value, projection and CLI ops draw their inputs from fixed pools whose exact
answers are stored in `expected.json`; the run seed only chooses which pool
entries a run uses. Repair and membership ops get fresh inputs from the run
seed, and their answers are checked from the definitions (see `oracle`).

Every generator takes the imported `nsgames` package as `ns`, so that inputs
are built by the same module objects the run measures.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracle

POOL2 = 160  # two-player 2x2 full-support games
POOL3 = 160  # three-player 2x2x2 full-support games
BOXES = 120  # normalized signalling two-player boxes with a query distribution
CLI_GAMES = 64  # the first CLI_GAMES entries of POOL2 have stored CLI reports

_POOL2_SEED = 10_000
_POOL3_SEED = 20_000
_BOX_SEED = 30_000

TWO = (2, 2)
THREE = (2, 2, 2)


def pool2_game(ns, index: int):
    return ns.random_game(_POOL2_SEED + index, 2, TWO, TWO, full_support=True)


def pool3_game(ns, index: int):
    return ns.random_game(_POOL3_SEED + index, 3, THREE, THREE, full_support=True)


def a3_game(ns, index=None):
    """The built-in anticorrelation game; `index` is unused."""
    return ns.anticorrelation_game()


def rand_dist(rng: random.Random, n: int, denom: int, floor: int = 0) -> tuple[Fraction, ...]:
    weights = [rng.randrange(floor, denom) for _ in range(n)]
    if sum(weights) == 0:
        weights[-1] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def box(index: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(target, densities): a full-support query distribution and a
    per-input normalized 2x2 box whose rows are drawn independently, so it
    signals."""
    rng = random.Random(_BOX_SEED + index)
    target = rand_dist(rng, 4, 16, floor=1)
    densities = tuple(p for _ in range(4) for p in rand_dist(rng, 4, 8))
    return target, densities


def deterministic_mixture(rng: random.Random, inputs, outputs, parts: int = 3):
    """A mixture of deterministic local strategies: classical, hence NS."""
    n_x, n_a = math.prod(inputs), math.prod(outputs)
    dens = [Fraction(0)] * (n_x * n_a)
    for weight in rand_dist(rng, parts, 64):
        maps = [[rng.randrange(outputs[i]) for _ in range(inputs[i])] for i in range(len(inputs))]
        for x in range(n_x):
            x_tup = oracle.decode(x, inputs)
            a = oracle.encode([maps[i][x_tup[i]] for i in range(len(inputs))], outputs)
            dens[x * n_a + a] += weight
    return tuple(dens)


def random_table(rng: random.Random, inputs, outputs) -> tuple[Fraction, ...]:
    """Entries i.i.d. on the grid k/32: almost never NS, usually not SNOS."""
    n = math.prod(inputs) * math.prod(outputs)
    return tuple(Fraction(rng.randrange(32), 32) for _ in range(n))


def snos_table(rng: random.Random, inputs, outputs) -> tuple[Fraction, ...]:
    """A random table scaled into the SNOS polytope (rarely NS)."""
    raw = random_table(rng, inputs, outputs)
    worst = oracle.dominator_mass(inputs, outputs, raw)
    shrink = Fraction(rng.randrange(8, 33), 32)
    return tuple(v / worst * shrink for v in raw) if worst > 1 else raw


def certified_instance(rng: random.Random, players: int, noise=Fraction(1, 10)):
    """(target, joint entries, marginals, epsilons) for reconstruct_snos: a
    noisy joint around target . P for an NS reference P, whose subset
    conditionals serve as the certificates, with the exact distances as the
    tolerances."""
    inputs = outputs = (2,) * players
    n_x = n_a = 2**players
    target = rand_dist(rng, n_x, 64)
    reference = deterministic_mixture(rng, inputs, outputs)
    noise_box = rand_dist(rng, n_x * n_a, 64)
    joint = tuple(
        (1 - noise) * target[i // n_a] * reference[i] + noise * noise_box[i]
        for i in range(n_x * n_a)
    )
    marginals, epsilons = {}, {}
    for members in oracle.strict_subsets(players, include_empty=False):
        table = oracle.subset_conditional(inputs, outputs, reference, members)
        marginals[members] = table
        epsilons[members] = oracle.certificate_distance(
            inputs, outputs, target, joint, members, table
        )
    x_marginal = [sum(joint[x * n_a : (x + 1) * n_a]) for x in range(n_x)]
    epsilons[()] = sum(abs(w - t) for w, t in zip(x_marginal, target)) / 2
    return target, joint, marginals, epsilons
