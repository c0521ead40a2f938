"""Ragged-alphabet and small-player edge cases.

Everything else in the suite uses uniform binary alphabets; these tests probe
the mixed-radix index plumbing with distinct per-player sizes, where stride
bugs would actually show.
"""

import random
from fractions import Fraction

import pytest

from nsgames import (
    Correlation,
    Game,
    SubsetIndex,
    is_ns,
    is_snos,
    marginal,
    nearest_ns,
    random_game,
    repeat_game,
    value_classical,
    value_ns,
    value_snos,
    winning_probability,
)
from nsgames._mixedradix import decode, encode, table_size
from nsgames.polytopes import NS_MODE_ALL

from conftest import rand_dist, random_deterministic_mixture

F = Fraction


def _matching_pennies_31() -> Game:
    """One player, trivial input, three outputs; predicate accepts output 1."""
    return Game((1,), (3,), (F(1),), (0, 1, 0))


def test_single_player_game_values():
    game = _matching_pennies_31()
    assert value_classical(game).value == 1
    assert value_ns(game).value == 1
    assert value_snos(game).value == 1


def test_single_player_membership():
    normalized = Correlation((1,), (3,), (F(1, 3), F(1, 3), F(1, 3)))
    assert is_ns(normalized).member
    sub = Correlation((1,), (3,), (F(1, 3), F(1, 3), F(0)))
    assert not is_ns(sub).member
    assert is_snos(sub).member


@pytest.fixture(scope="module")
def ragged_game():
    return random_game(77, 2, (3, 2), (2, 3), full_support=True, predicate_density=0.45)


def test_two_player_collapse_on_ragged_alphabets(ragged_game):
    ns = value_ns(ragged_game)
    snos = value_snos(ragged_game)
    assert ns.value == snos.value
    assert value_classical(ragged_game).value <= ns.value


def test_quotient_equals_direct_on_ragged_alphabets(ragged_game):
    assert (
        value_ns(ragged_game, use_symmetry=True).value
        == value_ns(ragged_game, use_symmetry=False).value
    )


def test_repeat_ragged_game_sandwich(ragged_game):
    single = value_ns(ragged_game).value
    repeated = value_ns(repeat_game(ragged_game, 2), rounds=2).value
    assert single**2 <= repeated <= single


def test_round_symmetry_detected_on_ragged_repeat(ragged_game):
    from nsgames.values import _generators

    doubled = repeat_game(ragged_game, 2)
    # no player swap is alphabet-compatible, so only the round swap survives
    assert len(_generators(doubled, 2, True)) == 1
    assert len(_generators(doubled, 1, True)) == 0


def test_marginals_on_ragged_three_player():
    rng = random.Random(771)
    inputs, outputs = (2, 3, 2), (3, 2, 2)
    corr = random_deterministic_mixture(rng, inputs, outputs)
    assert is_ns(corr, NS_MODE_ALL).member
    # middle-player marginal must match a direct recomputation
    subset = SubsetIndex(3, (1,))
    table = marginal(corr, subset)
    n_a = table_size(outputs)
    for x in range(table_size(inputs)):
        for a1 in range(outputs[1]):
            direct = sum(
                corr.density(x, a)
                for a in range(n_a)
                if decode(a, outputs)[1] == a1
            )
            assert table.value(x, a1) == direct


def test_snos_membership_on_ragged_three_player():
    rng = random.Random(772)
    inputs, outputs = (2, 3, 2), (3, 2, 2)
    base = random_deterministic_mixture(rng, inputs, outputs)
    shrunk = Correlation(
        inputs, outputs, tuple(v * F(3, 4) for v in base.densities)
    )
    assert is_snos(shrunk).member
    report = is_ns(shrunk)
    assert not report.member  # no longer normalized


def test_nearest_ns_on_ragged_alphabets():
    rng = random.Random(773)
    inputs, outputs = (3, 2), (2, 3)
    target = rand_dist(rng, table_size(inputs))
    member = random_deterministic_mixture(rng, inputs, outputs)
    _, distance = nearest_ns(target, member)
    assert distance == 0


def test_winning_probability_ragged_consistency(ragged_game):
    result = value_classical(ragged_game)
    assert winning_probability(ragged_game, result.strategy) == result.value
