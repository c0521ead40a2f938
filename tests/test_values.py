import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    ShapeError,
    Correlation,
    Game,
    LpProblem,
    ResourceLimitError,
    is_ns,
    is_snos,
    lp_solve,
    permute_players,
    permute_players_correlation,
    random_game,
    repeat_game,
    strict_subsets,
    tensor_power,
    threshold_game,
    value_classical,
    value_ns,
    value_snos,
    winning_probability,
)
from nsgames import values
from nsgames._mixedradix import decode, encode, project, table_size
from nsgames._symmetry import (
    Symmetry,
    player_permutation_candidates,
    preserves_game,
    round_permutation_candidates,
    symmetry_group,
)
from nsgames.polytopes import NS_MODE_ALL

from _reference_orbits import closure, fixing_last_outputs, reference_orbits

F = Fraction


def _constant_predicate_game(base: Game, bit: int) -> Game:
    return Game(
        base.input_alphabets,
        base.output_alphabets,
        base.distribution,
        (bit,) * len(base.predicate),
    )


# --- published/derived single-game values -------------------------------------


def test_ns_value_of_anticorrelation_game(a3):
    assert value_ns(a3).value == F(2, 3)


def test_snos_value_of_anticorrelation_game(a3):
    assert value_snos(a3).value == 1


def test_chsh_values(chsh):
    assert value_ns(chsh).value == 1
    assert value_snos(chsh).value == 1
    assert value_classical(chsh).value == F(3, 4)


def test_classical_value_of_anticorrelation_game(a3):
    assert value_classical(a3).value == F(2, 3)


def test_constant_predicates(chsh):
    always = _constant_predicate_game(chsh, 1)
    never = _constant_predicate_game(chsh, 0)
    assert value_ns(always).value == 1
    assert value_classical(always).value == 1
    assert value_snos(never).value == 0


def test_witnesses_verify(a3):
    result = value_ns(a3)
    assert is_ns(result.strategy, NS_MODE_ALL).member
    assert winning_probability(a3, result.strategy) == result.value
    result = value_snos(a3)
    assert is_snos(result.strategy).member
    assert winning_probability(a3, result.strategy) == result.value


# --- model ordering and two-player collapse --------------------------------------


def test_value_ordering_on_random_games():
    for seed in range(8):
        game = random_game(seed, 2, (2, 2), (2, 2), predicate_density=0.5)
        classical = value_classical(game).value
        ns = value_ns(game).value
        snos = value_snos(game).value
        assert classical <= ns <= snos


def test_two_player_collapse():
    for seed in range(6):
        game = random_game(100 + seed, 2, (2, 2), (2, 2), predicate_density=0.4)
        assert value_ns(game).value == value_snos(game).value


def test_three_player_gap_exists(a3):
    assert value_ns(a3).value < value_snos(a3).value


def test_full_support_perfect_snos_forces_perfect_ns():
    # exercised on a full-support game with SNOS value 1
    game = random_game(7, 2, (2, 2), (2, 2), full_support=True, predicate_density=1.0)
    assert value_snos(game).value == 1
    assert value_ns(game).value == 1


# --- symmetry quotient against the plain LP --------------------------------------


def test_quotient_matches_direct_assembly(a3, chsh):
    games = [a3, chsh] + [
        random_game(200 + seed, 2, (2, 2), (2, 2), predicate_density=0.45)
        for seed in range(4)
    ]
    for game in games:
        assert value_ns(game, use_symmetry=True).value == value_ns(game, use_symmetry=False).value
        assert (
            value_snos(game, use_symmetry=True).value
            == value_snos(game, use_symmetry=False).value
        )


def test_round_quotient_matches_direct_on_repeats(chsh):
    game = random_game(300, 2, (2, 2), (2, 2), full_support=True, predicate_density=0.4)
    repeated = repeat_game(game, 2)
    with_hint = value_ns(repeated, rounds=2).value
    without_hint = value_ns(repeated).value
    assert with_hint == without_hint
    t_game = threshold_game(chsh, 1, 2)
    assert value_ns(t_game, rounds=2).value == value_ns(t_game).value == 1


# --- repetition/threshold values ---------------------------------------------------


def test_sandwich_for_repeat(a3):
    v1 = value_ns(a3).value
    v2 = value_ns(repeat_game(a3, 2), rounds=2).value
    assert v1**2 <= v2 <= v1
    assert v2 == F(2, 3)  # repetition does not shrink this game's NS value


def test_threshold_monotone_in_t(chsh):
    game = random_game(400, 2, (2, 2), (2, 2), full_support=True, predicate_density=0.4)
    values = [
        value_ns(threshold_game(game, t, 2), rounds=2).value for t in range(0, 3)
    ]
    assert values[0] == 1
    assert values[0] >= values[1] >= values[2]


def test_tensor_closure_of_snos_witness(a3):
    result = value_snos(a3)
    squared = tensor_power(result.strategy, 2)
    assert is_snos(squared).member
    assert winning_probability(repeat_game(a3, 2), squared) == result.value**2


# --- classical enumeration ----------------------------------------------------------


def test_classical_witness_is_deterministic_and_ns(chsh):
    result = value_classical(chsh)
    assert set(result.strategy.densities) <= {F(0), F(1)}
    assert is_ns(result.strategy, NS_MODE_ALL).member


def test_classical_tie_break_is_lexicographic():
    # predicate accepts everything: every strategy wins, the first one returned
    game = Game((2, 2), (2, 2), (F(1, 4),) * 4, (1,) * 16)
    result = value_classical(game)
    # lexicographically smallest deterministic strategy: both players answer 0
    for x in range(4):
        assert result.strategy.density(x, 0) == 1


def test_classical_cap():
    game = random_game(1, 2, (3, 3), (3, 3), predicate_density=0.5)
    with pytest.raises(ResourceLimitError):
        value_classical(game, strategy_cap=100)


def test_value_table_cap(chsh):
    with pytest.raises(ResourceLimitError):
        value_ns(repeat_game(chsh, 3), rounds=3, table_cap=100)


def test_rounds_hint_needs_product_alphabets():
    game = random_game(5, 2, (3, 2), (2, 2), predicate_density=0.5)
    with pytest.raises(ShapeError):
        value_ns(game, rounds=2)


# --- invariance under player relabelling ----------------------------------------------


@pytest.mark.parametrize("sigma", list(itertools.permutations(range(3))))
def test_values_invariant_under_player_relabelling(sigma):
    """Every value is unchanged on the relabelled ragged game, and the
    relabelled witness is a member winning it with the same value."""
    game = random_game(41, 3, (2, 1, 2), (2, 3, 2))
    permuted = permute_players(game, sigma)
    for solve, member in (
        (value_ns, lambda c: is_ns(c, NS_MODE_ALL)),
        (value_snos, is_snos),
        (value_classical, lambda c: is_ns(c, NS_MODE_ALL)),
    ):
        result = solve(game)
        assert solve(permuted).value == result.value
        image = permute_players_correlation(result.strategy, sigma)
        assert member(image).member
        assert winning_probability(permuted, image) == result.value


# --- invariance under alphabet relabelling --------------------------------------------


def _symbol_map(sizes: tuple[int, ...], player: int, perm: tuple[int, ...]) -> list[int]:
    """Joint-index image of every index when `player`'s symbol v becomes perm[v]."""
    out = []
    for idx in range(table_size(sizes)):
        tup = list(decode(idx, sizes))
        tup[player] = perm[tup[player]]
        out.append(encode(tuple(tup), sizes))
    return out


@st.composite
def _alphabet_relabellings(draw):
    players = draw(st.sampled_from([2, 3]))
    top = 3 if players == 2 else 2
    inputs = tuple(draw(st.integers(1, top)) for _ in range(players))
    outputs = tuple(draw(st.integers(1, top)) for _ in range(players))
    game = random_game(draw(st.integers(0, 10**6)), players, inputs, outputs)
    player = draw(st.integers(0, players - 1))
    in_perm = tuple(draw(st.permutations(range(inputs[player]))))
    out_perm = tuple(draw(st.permutations(range(outputs[player]))))
    if draw(st.booleans()):  # rotate so that the last output symbol moves
        out_perm = out_perm[1:] + out_perm[:1]
    return game, player, in_perm, out_perm


@settings(max_examples=25, deadline=None)
@given(_alphabet_relabellings())
def test_values_invariant_under_alphabet_relabelling(case):
    """Relabelling one player's inputs and outputs changes no value, and the
    relabelled witness is a member winning the relabelled game at that value."""
    game, player, in_perm, out_perm = case
    x_map = _symbol_map(game.input_alphabets, player, in_perm)
    a_map = _symbol_map(game.output_alphabets, player, out_perm)
    n_a = game.n_outputs
    distribution = [F(0)] * game.n_inputs
    predicate = [0] * len(game.predicate)
    for x in range(game.n_inputs):
        distribution[x_map[x]] = game.distribution[x]
        for a in range(n_a):
            predicate[x_map[x] * n_a + a_map[a]] = game.predicate[x * n_a + a]
    relabelled = Game(
        game.input_alphabets, game.output_alphabets, tuple(distribution), tuple(predicate)
    )
    for solve, member in (
        (value_ns, lambda c: is_ns(c, NS_MODE_ALL)),
        (value_snos, is_snos),
        (value_classical, lambda c: is_ns(c, NS_MODE_ALL)),
    ):
        result = solve(game)
        assert solve(relabelled).value == result.value
        densities = [F(0)] * len(result.strategy.densities)
        for x in range(game.n_inputs):
            for a in range(n_a):
                densities[x_map[x] * n_a + a_map[a]] = result.strategy.densities[x * n_a + a]
        image = Correlation(game.input_alphabets, game.output_alphabets, tuple(densities))
        assert member(image).member
        assert winning_probability(relabelled, image) == result.value


# --- Collins-Gisin NS LP against the dense equality-form LP --------------------------


def _dense_ns_value(game: Game) -> Fraction:
    """NS value from the unreduced LP over the full P table: normalization plus
    the marginal equalities of every nonempty strict subset."""
    n_x, n_a = game.n_inputs, game.n_outputs
    x_tups = [decode(x, game.input_alphabets) for x in range(n_x)]
    a_tups = [decode(a, game.output_alphabets) for a in range(n_a)]
    n = n_x * n_a
    rows = []
    for x in range(n_x):
        coeffs = [F(0)] * n
        coeffs[x * n_a : (x + 1) * n_a] = [F(1)] * n_a
        rows.append((tuple(coeffs), "=", F(1)))
    for subset in strict_subsets(game.players, include_empty=False):
        members = subset.members
        first: dict[tuple, int] = {}
        for x in range(n_x):
            x_i = tuple(x_tups[x][i] for i in members)
            ref = first.setdefault(x_i, x)
            if ref == x:
                continue
            for a_i in {tuple(t[i] for i in members) for t in a_tups}:
                coeffs = [F(0)] * n
                for a, a_tup in enumerate(a_tups):
                    if tuple(a_tup[i] for i in members) == a_i:
                        coeffs[x * n_a + a] += 1
                        coeffs[ref * n_a + a] -= 1
                rows.append((tuple(coeffs), "=", F(0)))
    objective = tuple(
        game.distribution[x] * game.predicate[x * n_a + a] for x in range(n_x) for a in range(n_a)
    )
    return lp_solve(LpProblem(objective, tuple(rows), maximize=True)).value


def _cg_cases() -> list[Game]:
    return (
        [random_game(500 + seed, 2, (2, 2), (2, 2), predicate_density=0.5) for seed in range(3)]
        + [random_game(77, 2, (3, 2), (2, 3), full_support=True, predicate_density=0.45)]
        + [random_game(600 + seed, 3, (2, 2, 2), (2, 2, 2), predicate_density=0.5) for seed in range(2)]
        + [random_game(700, 3, (2, 1, 2), (3, 2, 2), predicate_density=0.5)]
        + [Game((1,), (3,), (F(1),), (0, 1, 0))]
        + [Game((2,), (1,), (F(1, 3), F(2, 3)), (1, 0))]  # no coordinates at all
    )


@pytest.mark.parametrize("game", _cg_cases(), ids=lambda g: f"{g.input_alphabets}x{g.output_alphabets}")
def test_ns_value_matches_dense_equality_lp(game):
    want = _dense_ns_value(game)
    assert value_ns(game, use_symmetry=True).value == want
    assert value_ns(game, use_symmetry=False).value == want


def _captured_problems(monkeypatch, game, solve=value_ns, **kwargs) -> list[LpProblem]:
    captured = []

    def spy(problem, **options):
        captured.append(problem)
        return lp_solve(problem, **options)

    monkeypatch.setattr(values, "lp_solve", spy)
    solve(game, **kwargs)
    return captured


@pytest.mark.parametrize("rounds", [1, 2])
def test_ns_lp_starts_from_a_feasible_slack_basis(monkeypatch, a3, rounds):
    game = repeat_game(a3, rounds) if rounds > 1 else a3
    (problem,) = _captured_problems(monkeypatch, game, rounds=rounds)
    assert problem.constraints
    for _, relation, bound in problem.constraints:
        assert relation == "<="
        assert bound >= 0


def test_symmetry_moving_a_last_output_is_left_out(monkeypatch, chsh):
    # flipping both outputs preserves a XOR b = x AND y, but moves the last symbol
    flip = Symmetry((0, 1), ((0, 1), (0, 1)), ((1, 0), (1, 0)))
    assert preserves_game(chsh, flip)
    generators = values._generators(chsh, 1, True)
    assert values._fixing_last_outputs(generators, chsh.output_alphabets) == generators
    monkeypatch.setattr(
        values, "player_permutation_candidates", lambda g: [flip] + player_permutation_candidates(g)
    )
    generators = values._generators(chsh, 1, True)
    kept = values._fixing_last_outputs(generators, chsh.output_alphabets)
    assert flip in generators
    assert flip not in kept
    assert len(kept) == len(generators) - 1
    with_flip = _captured_problems(monkeypatch, chsh)
    assert value_ns(chsh).value == 1
    assert value_snos(chsh).value == 1  # the SNOS quotient keeps every generator
    monkeypatch.undo()
    without_flip = _captured_problems(monkeypatch, chsh)
    assert with_flip[0].n_vars == without_flip[0].n_vars


@pytest.mark.parametrize("rounds", [2, 3])
def test_round_transpositions_generate_every_round_permutation(chsh, rounds):
    every = [
        Symmetry((0, 1), (project((2,) * rounds, rho),) * 2, (project((2,) * rounds, rho),) * 2)
        for rho in itertools.permutations(range(rounds))
        if rho != tuple(range(rounds))
    ]
    adjacent = round_permutation_candidates((2, 2), (2, 2), rounds)
    assert len(adjacent) == rounds - 1
    for game in (repeat_game(chsh, rounds), threshold_game(chsh, 1, rounds)):
        assert symmetry_group(game, adjacent) == adjacent
        assert len(symmetry_group(game, every)) == len(every)
        inputs, outputs = game.input_alphabets, game.output_alphabets
        masks = [3, 1, 2]
        assert values._orbits(inputs, outputs, adjacent, masks) == values._orbits(
            inputs, outputs, every, masks
        )


def test_use_symmetry_false_leaves_the_lp_unreduced(monkeypatch, chsh):
    game = repeat_game(chsh, 2)
    inputs, outputs = game.input_alphabets, game.output_alphabets
    last = tuple(s - 1 for s in outputs)
    full = 2**game.players - 1

    def coordinates(out_sizes, masks):
        return sum(
            table_size([inputs[i] for i in range(game.players) if mask >> i & 1])
            * table_size([out_sizes[i] for i in range(game.players) if mask >> i & 1])
            for mask in masks
        )

    unreduced = {
        value_ns: coordinates(last, range(1, full + 1)),
        value_snos: coordinates(outputs, range(1, full + 1)),
    }
    for solve, n_vars in unreduced.items():
        (plain,) = _captured_problems(monkeypatch, game, solve, rounds=2, use_symmetry=False)
        (reduced,) = _captured_problems(monkeypatch, game, solve, rounds=2)
        assert plain.n_vars == n_vars > reduced.n_vars
        monkeypatch.undo()
        assert lp_solve(plain).value == lp_solve(reduced).value
        assert solve(game, rounds=2, use_symmetry=False).value == solve(game, rounds=2).value
    with pytest.raises(ShapeError):  # the rounds hint is still checked
        value_ns(chsh, rounds=2, use_symmetry=False)


# --- orbits from generators against the enumerated group ---------------------------


def _assert_generator_orbits_match_group(game: Game, rounds: int) -> list:
    """The flood fill over the generators finds the orbits of the closed group
    on the P table with the SNOS dominator coordinates, and on the NS
    coordinates; returns the group."""
    inputs, outputs = game.input_alphabets, game.output_alphabets
    generators = values._generators(game, rounds, True)
    group = closure(game, generators)
    full = 2**game.players - 1
    snos_masks = [full] + list(range(1, full))
    assert values._orbits(inputs, outputs, generators, snos_masks) == reference_orbits(
        inputs, outputs, group, snos_masks
    )
    last = tuple(s - 1 for s in outputs)
    ns_masks = list(range(1, full + 1))
    kept = values._fixing_last_outputs(generators, outputs)
    assert values._orbits(inputs, last, kept, ns_masks) == reference_orbits(
        inputs, last, fixing_last_outputs(group, outputs), ns_masks
    )
    return group


@st.composite
def _round_games(draw):
    players = draw(st.sampled_from([2, 3]))
    top = 3 if players == 2 else 2
    inputs = tuple(draw(st.integers(1, top)) for _ in range(players))
    outputs = tuple(draw(st.integers(1, top)) for _ in range(players))
    base = random_game(draw(st.integers(0, 10**6)), players, inputs, outputs)
    size = base.n_inputs * base.n_outputs
    rounds = draw(st.integers(1, max(r for r in (1, 2, 3) if size**r <= 4096)))
    if rounds > 1 and draw(st.booleans()):
        return threshold_game(base, draw(st.integers(1, rounds)), rounds), rounds
    return (repeat_game(base, rounds) if rounds > 1 else base), rounds


@settings(max_examples=20, deadline=None)
@given(_round_games())
def test_generator_orbits_match_the_enumerated_group(case):
    _assert_generator_orbits_match_group(*case)


@pytest.mark.parametrize("rounds, order", [(1, 6), (2, 12)])
def test_generator_orbits_match_the_enumerated_group_of_a3(a3, rounds, order):
    game = repeat_game(a3, rounds) if rounds > 1 else a3
    assert len(_assert_generator_orbits_match_group(game, rounds)) == order
