import random
from fractions import Fraction

import pytest

from nsgames import (
    Correlation,
    DomainError,
    Game,
    JointDistribution,
    ResourceLimitError,
    ShapeError,
    SubsetIndex,
    correlation_from_json_dict,
    correlation_to_json_dict,
    game_from_json_dict,
    game_to_json_dict,
    marginal,
    permute_players,
    permute_players_correlation,
    repeat_game,
    symmetrize,
    tensor_power,
    threshold_game,
    winning_probability,
)
from nsgames._mixedradix import decode, encode

from conftest import random_correlation

F = Fraction


# --- construction invariants -------------------------------------------------


def test_game_rejects_unnormalized_distribution(chsh):
    with pytest.raises(DomainError):
        Game((2, 2), (2, 2), (F(1, 2),) * 4, chsh.predicate)


def test_game_rejects_negative_weight(chsh):
    dist = (F(3, 2), F(-1, 2), F(0), F(0))
    with pytest.raises(DomainError):
        Game((2, 2), (2, 2), dist, chsh.predicate)


def test_game_rejects_non_binary_predicate(chsh):
    pred = (2,) + chsh.predicate[1:]
    with pytest.raises(DomainError):
        Game((2, 2), (2, 2), chsh.distribution, pred)


def test_game_rejects_size_mismatch(chsh):
    with pytest.raises(ShapeError):
        Game((2, 2), (2, 2), chsh.distribution[:-1], chsh.predicate)
    with pytest.raises(ShapeError):
        Game((2, 2), (2,), chsh.distribution, chsh.predicate)


def test_correlation_rejects_negative_entries():
    dens = [F(0)] * 16
    dens[3] = F(-1, 4)
    with pytest.raises(DomainError):
        Correlation((2, 2), (2, 2), tuple(dens))


@pytest.mark.parametrize(
    "make, field, unit, negative",
    [
        (Correlation, "densities", "entries", "densities must be non-negative"),
        (JointDistribution, "entries", "values", "joint distribution entries must be non-negative"),
    ],
)
def test_table_constructors_name_their_errors(make, field, unit, negative):
    half, quarter = F(1, 2), F(1, 4)
    differ = "player counts of input and output alphabets differ"
    cases = [
        ((), (2,), (half,) * 2, ShapeError, "input_alphabets: at least one player is required"),
        ((2,), (0,), (), ShapeError, "output_alphabets: alphabet sizes must be positive, got (0,)"),
        ((2,), (2, 2), (quarter,) * 8, ShapeError, differ),
        ((2,), (2,), (quarter,) * 3, ShapeError, f"{field} has 3 {unit}, expected 4"),
        ((2,), (2,), (half, -quarter, half, quarter), DomainError, negative),
    ]
    for inputs, outputs, values, error, message in cases:
        with pytest.raises(error) as info:
            make(inputs, outputs, values)
        assert str(info.value) == message
    table = make([2], [2], ["1/4", 1, half, 0])  # converted to exact tuples
    assert (table.players, table.n_inputs, table.n_outputs) == (1, 2, 2)
    assert table.input_alphabets == (2,) and table.output_alphabets == (2,)
    assert getattr(table, field) == (quarter, F(1), half, F(0))
    assert all(type(v) is Fraction for v in getattr(table, field))


def test_subset_index_must_be_strict():
    with pytest.raises(DomainError):
        SubsetIndex(3, (0, 1, 2))
    with pytest.raises(DomainError):
        SubsetIndex(2, (2,))
    assert SubsetIndex(3, (2, 0)).members == (0, 2)
    assert SubsetIndex(3, (0, 2)).complement() == (1,)


# --- winning probability -------------------------------------------------------


def test_winning_probability_perfect_strategy(a3, a3_strategy):
    assert winning_probability(a3, a3_strategy) == 1


def test_winning_probability_zero_strategy(chsh):
    zero = Correlation((2, 2), (2, 2), (F(0),) * 16)
    assert winning_probability(chsh, zero) == 0


def test_winning_probability_uniform_chsh(chsh):
    uniform = Correlation((2, 2), (2, 2), (F(1, 4),) * 16)
    assert winning_probability(chsh, uniform) == F(1, 2)


def test_winning_probability_shape_error(a3):
    with pytest.raises(ShapeError):
        winning_probability(a3, Correlation((2, 2), (2, 2), (F(1, 4),) * 16))


def test_winning_probability_mass_bound(chsh):
    rng = random.Random(5)
    for _ in range(20):
        corr = random_correlation(rng, (2, 2), (2, 2))
        win = winning_probability(chsh, corr)
        cap = sum(
            chsh.distribution[x] * corr.mass(x) for x in range(4)
        )
        assert 0 <= win <= cap


# --- parallel repetition -------------------------------------------------------


def test_repeat_identity(chsh):
    assert repeat_game(chsh, 1) is chsh


def test_repeat_product_factorization(chsh, pr):
    rng = random.Random(9)
    g2 = repeat_game(chsh, 2)
    corr = random_correlation(rng, (2, 2), (2, 2))
    assert winning_probability(g2, tensor_power(corr, 2)) == winning_probability(chsh, corr) ** 2
    assert winning_probability(g2, tensor_power(pr, 2)) == 1


def test_repeat_distribution_is_product(chsh):
    g2 = repeat_game(chsh, 2)
    assert g2.input_alphabets == (4, 4)
    assert sum(g2.distribution) == 1
    assert set(g2.distribution) == {F(1, 16)}


def test_repeat_cap_names_size(chsh):
    with pytest.raises(ResourceLimitError, match="65536"):
        repeat_game(chsh, 4, table_cap=1000)


def test_threshold_equals_repeat_at_full_threshold(a3):
    assert threshold_game(a3, 2, 2).predicate == repeat_game(a3, 2).predicate


def test_threshold_zero_accepts_everything(chsh):
    game = threshold_game(chsh, 0, 2)
    assert set(game.predicate) == {1}


def test_threshold_range_checks(chsh):
    with pytest.raises(DomainError):
        threshold_game(chsh, 3, 2)
    with pytest.raises(DomainError):
        threshold_game(chsh, -1, 2)


def test_repetitions_commute_with_player_relabeling():
    rng = random.Random(3)
    game = Game(
        (2, 3),
        (3, 2),
        tuple(F(1, 6) for _ in range(6)),
        tuple(rng.randrange(2) for _ in range(36)),
    )
    sigma = (1, 0)
    for build in (lambda g: repeat_game(g, 2), lambda g: threshold_game(g, 1, 2)):
        assert build(permute_players(game, sigma)) == permute_players(build(game), sigma)


# --- symmetrization -------------------------------------------------------------


def _swap_rounds_correlation(corr: Correlation) -> Correlation:
    """Round swap on a 2-fold product correlation, computed from first principles."""

    def swap_symbol(symbol: int, base: int) -> int:
        r1, r2 = divmod(symbol, base)
        return r2 * base + r1

    bases_in = tuple(int(s**0.5 + 0.5) for s in corr.input_alphabets)
    bases_out = tuple(int(s**0.5 + 0.5) for s in corr.output_alphabets)
    dens = [F(0)] * len(corr.densities)
    for x in range(corr.n_inputs):
        x_tup = decode(x, corr.input_alphabets)
        sx = encode(
            tuple(swap_symbol(v, bases_in[i]) for i, v in enumerate(x_tup)),
            corr.input_alphabets,
        )
        for a in range(corr.n_outputs):
            a_tup = decode(a, corr.output_alphabets)
            sa = encode(
                tuple(swap_symbol(v, bases_out[i]) for i, v in enumerate(a_tup)),
                corr.output_alphabets,
            )
            dens[x * corr.n_outputs + a] = corr.density(sx, sa)
    return Correlation(corr.input_alphabets, corr.output_alphabets, tuple(dens))


def test_symmetrize_two_rounds_is_average_with_swap():
    rng = random.Random(11)
    corr = random_correlation(rng, (4, 4), (4, 4))
    swapped = _swap_rounds_correlation(corr)
    expected = tuple((a + b) / 2 for a, b in zip(corr.densities, swapped.densities))
    assert symmetrize(corr, 2).densities == expected


@pytest.mark.parametrize("inputs, outputs", [((4, 9), (9, 4)), ((9, 4), (4, 9))])
def test_symmetrize_two_rounds_on_ragged_alphabets(inputs, outputs):
    """Base alphabets (2, 3)/(3, 2) and (3, 2)/(2, 3), squared."""
    rng = random.Random(12)
    corr = random_correlation(rng, inputs, outputs)
    swapped = _swap_rounds_correlation(corr)
    expected = tuple((a + b) / 2 for a, b in zip(corr.densities, swapped.densities))
    assert symmetrize(corr, 2).densities == expected


def test_symmetrize_fixes_symmetric_input(pr):
    sym = tensor_power(pr, 2)
    assert symmetrize(sym, 2).densities == sym.densities


def test_symmetrize_idempotent():
    rng = random.Random(13)
    corr = random_correlation(rng, (4, 4), (4, 4))
    once = symmetrize(corr, 2)
    assert symmetrize(once, 2).densities == once.densities


def test_symmetrize_preserves_winning_probability(chsh):
    rng = random.Random(17)
    g2 = repeat_game(chsh, 2)
    for _ in range(5):
        corr = random_correlation(rng, (4, 4), (4, 4))
        assert winning_probability(g2, symmetrize(corr, 2)) == winning_probability(g2, corr)


def test_symmetrize_three_rounds(chsh):
    rng = random.Random(18)
    g3 = repeat_game(chsh, 3)
    corr = random_correlation(rng, (8, 8), (8, 8))
    sym = symmetrize(corr, 3)
    assert winning_probability(g3, sym) == winning_probability(g3, corr)
    assert symmetrize(sym, 3).densities == sym.densities  # idempotent


def test_symmetrize_rejects_non_product_alphabets():
    rng = random.Random(19)
    corr = random_correlation(rng, (3, 2), (2, 2))
    with pytest.raises(ShapeError):
        symmetrize(corr, 2)


# --- marginals -------------------------------------------------------------------


def test_marginal_uniform_is_uniform():
    uniform = Correlation((2, 2, 2), (2, 2, 2), (F(1, 8),) * 64)
    table = marginal(uniform, SubsetIndex(3, (0, 2)))
    assert set(table.entries) == {F(1, 4)}


def test_marginal_of_perfect_strategy(a3_strategy):
    # at query 110, the two active players anti-correlate: half mass on each
    # of the output pairs (0,1) and (1,0), none on (0,0) or (1,1)
    table = marginal(a3_strategy, SubsetIndex(3, (0, 1)))
    x = encode((1, 1, 0), (2, 2, 2))
    got = {a: table.value(x, a) for a in range(4)}
    assert got == {
        encode((0, 1), (2, 2)): F(1, 2),
        encode((1, 0), (2, 2)): F(1, 2),
        encode((0, 0), (2, 2)): F(0),
        encode((1, 1), (2, 2)): F(0),
    }


def test_marginal_empty_subset_is_total_mass(a3_strategy):
    table = marginal(a3_strategy, SubsetIndex(3, ()))
    masses = [a3_strategy.mass(x) for x in range(8)]
    assert list(table.entries) == masses


def test_marginal_chain_rule():
    rng = random.Random(23)
    corr = random_correlation(rng, (2, 2, 2), (2, 2, 2))
    big = marginal(corr, SubsetIndex(3, (0, 2)))
    small = marginal(corr, SubsetIndex(3, (0,)))
    # collapsing the player-2 component of the (0, 2) marginal gives the (0,) one
    for x in range(corr.n_inputs):
        for a0 in range(2):
            total = sum(big.value(x, encode((a0, a2), (2, 2))) for a2 in range(2))
            assert total == small.value(x, a0)


# --- player relabeling ------------------------------------------------------------


def test_permute_players_roundtrip(a3, a3_strategy):
    sigma = (2, 0, 1)
    inverse = (1, 2, 0)
    assert permute_players(permute_players(a3, sigma), inverse) == a3
    back = permute_players_correlation(
        permute_players_correlation(a3_strategy, sigma), inverse
    )
    assert back == a3_strategy


def test_permute_players_preserves_value(a3, a3_strategy):
    sigma = (1, 2, 0)
    permuted_game = permute_players(a3, sigma)
    permuted_strategy = permute_players_correlation(a3_strategy, sigma)
    assert winning_probability(permuted_game, permuted_strategy) == 1


# --- JSON round trips ---------------------------------------------------------------


def test_game_json_roundtrip(a3):
    assert game_from_json_dict(game_to_json_dict(a3)) == a3


def test_correlation_json_roundtrip(a3_strategy):
    assert correlation_from_json_dict(correlation_to_json_dict(a3_strategy)) == a3_strategy


def test_game_json_reports_field_position(chsh):
    data = game_to_json_dict(chsh)
    data["distribution"][2] = "nonsense"
    with pytest.raises(DomainError, match=r"distribution\[2\]"):
        game_from_json_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("players", 2.5), ("players", None), ("inputs", "22"), ("outputs", [2, "b"]),
     ("predicate", 1), ("distribution", 5)],
)
def test_game_json_rejects_malformed_fields(chsh, field, value):
    data = game_to_json_dict(chsh)
    data[field] = value
    with pytest.raises(ShapeError, match=field):
        game_from_json_dict(data)


def test_game_json_missing_fields(chsh):
    data = game_to_json_dict(chsh)
    del data["predicate"]
    with pytest.raises(ShapeError, match="predicate"):
        game_from_json_dict(data)
