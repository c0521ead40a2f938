import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from _reference_lp import _Tableau as ReferenceTableau
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import exact_lp, values
from nsgames import (
    Correlation,
    DomainError,
    LpProblem,
    LpSolution,
    ShapeError,
    anticorrelation_game,
    chsh_game,
    lp_solve,
    nearest_ns,
    objective_value,
    random_game,
    repeat_game,
    residuals,
    satisfies,
    value_ns,
    value_snos,
)

F = Fraction


def test_single_bound():
    problem = LpProblem((F(1),), (((F(1),), "<=", F(2, 3)),))
    solution = lp_solve(problem)
    assert solution.status == "optimal"
    assert solution.value == F(2, 3)
    assert solution.witness == (F(2, 3),)


def test_two_variable_budget():
    problem = LpProblem((F(1), F(1)), (((F(1), F(1)), "<=", F(1)),))
    assert lp_solve(problem).value == 1


def test_infeasible_and_unbounded():
    infeasible = LpProblem((F(1),), (((F(1),), ">=", F(2)), ((F(1),), "<=", F(1))))
    assert lp_solve(infeasible).status == "infeasible"
    unbounded = LpProblem((F(1),), (((F(1),), ">=", F(0)),))
    assert lp_solve(unbounded).status == "unbounded"


def test_free_variable_minimization():
    problem = LpProblem(
        (F(1),), (((F(1),), "=", F(-3)),), maximize=False, nonnegative=(False,)
    )
    solution = lp_solve(problem)
    assert solution.value == -3
    assert solution.witness == (F(-3),)


def test_degenerate_equalities():
    # redundant constraints and a zero right-hand side
    problem = LpProblem(
        (F(1), F(2)),
        (
            ((F(1), F(1)), "=", F(1)),
            ((F(2), F(2)), "=", F(2)),
            ((F(1), F(-1)), "<=", F(0)),
        ),
    )
    solution = lp_solve(problem)
    assert solution.value == 2
    assert satisfies(problem, solution.witness)


def test_malformed_problems_rejected():
    with pytest.raises(ShapeError):
        LpProblem((), ())
    with pytest.raises(ShapeError):
        LpProblem((F(1),), (((F(1), F(2)), "<=", F(1)),))
    with pytest.raises(DomainError):
        LpProblem((F(1),), (((F(1),), "<", F(1)),))


def test_determinism_bit_for_bit():
    rng = random.Random(0)
    rows = tuple(
        (tuple(F(rng.randrange(-3, 4)) for _ in range(4)), "<=", F(rng.randrange(1, 5)))
        for _ in range(6)
    )
    problem = LpProblem(tuple(F(rng.randrange(1, 4)) for _ in range(4)), rows)
    first = lp_solve(problem)
    second = lp_solve(problem)
    assert first == second


def test_pivot_rules_agree_on_value():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randrange(2, 5)
        rows = []
        for _ in range(rng.randrange(2, 6)):
            coeffs = tuple(F(rng.randrange(-2, 4)) for _ in range(n))
            rows.append((coeffs, rng.choice(["<=", "="]), F(rng.randrange(0, 4))))
        # keep feasibility likely: cap each variable
        for j in range(n):
            coeffs = tuple(F(1 if k == j else 0) for k in range(n))
            rows.append((coeffs, "<=", F(3)))
        problem = LpProblem(tuple(F(rng.randrange(0, 4)) for _ in range(n)), tuple(rows))
        lex = lp_solve(problem)
        assert lex == ReferenceTableau(problem, "dantzig-lex").solve()
        bland = ReferenceTableau(problem, "bland").solve()
        assert lex.status == bland.status
        if lex.status == "optimal":
            assert lex.value == bland.value
            for solution in (lex, bland):
                assert satisfies(problem, solution.witness)
                assert objective_value(problem, solution.witness) == solution.value


def test_witness_beats_grid_of_feasible_points():
    # weak-duality spot check: no feasible grid point outscores the optimum
    problem = LpProblem(
        (F(3), F(5)),
        (
            ((F(1), F(0)), "<=", F(4)),
            ((F(0), F(2)), "<=", F(12)),
            ((F(3), F(2)), "<=", F(18)),
        ),
    )
    solution = lp_solve(problem)
    assert solution.value == 36
    step = F(1, 3)
    for i, j in itertools.product(range(13), repeat=2):
        point = (i * step, j * step)
        if satisfies(problem, point):
            assert objective_value(problem, point) <= solution.value


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_lps_witness_exactness(data):
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, 5))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = []
    for _ in range(m):
        rows.append(
            (
                tuple(data.draw(coeff) for _ in range(n)),
                data.draw(st.sampled_from(["<=", ">=", "="])),
                data.draw(st.fractions(min_value=0, max_value=3, max_denominator=3)),
            )
        )
    for j in range(n):  # box to keep things bounded
        rows.append((tuple(F(int(k == j)) for k in range(n)), "<=", F(5)))
    problem = LpProblem(
        tuple(data.draw(coeff) for _ in range(n)),
        tuple(rows),
        maximize=data.draw(st.booleans()),
    )
    solution = lp_solve(problem)
    assert solution.status in ("optimal", "infeasible")
    if solution.status == "optimal":
        assert satisfies(problem, solution.witness)
        assert objective_value(problem, solution.witness) == solution.value
        # zero residual on equalities is part of `satisfies`; spot-check signs too
        for res, (_, relation, _) in zip(residuals(problem, solution.witness), problem.constraints):
            if relation != "=":
                assert res >= 0


def test_solution_dataclass_shape():
    assert LpSolution("infeasible").value is None


def test_free_variables_are_priced_on_both_split_columns():
    # maximize -x with x free and x >= -5: the optimum sits on the negative part
    problem = LpProblem((F(-1),), (((F(1),), ">=", F(-5)),), nonnegative=(False,))
    assert lp_solve(problem) == LpSolution("optimal", F(5), (F(-5),))
    # the cost of a sign-constrained variable after a free one
    problem = LpProblem(
        (F(0), F(1)),
        (((F(0), F(1)), "<=", F(2)), ((F(1), F(0)), "<=", F(1))),
        nonnegative=(False, True),
    )
    solution = lp_solve(problem)
    assert solution.value == 2
    assert solution.witness[1] == 2


def test_inputs_normalize_to_fractions():
    from_ints = LpProblem((1, 0), (((2, 0), "<=", 1), ((0, -3), ">=", -4)))
    from_strings = LpProblem(
        ("1", "0"), ((("4/2", "0"), "<=", "1"), (("0", "-3"), ">=", "-4")), nonnegative=(1, 1)
    )
    from_fractions = LpProblem(
        (F(1), F(0)), (((F(2), F(0)), "<=", F(1)), ((F(0), F(-3)), ">=", F(-4)))
    )
    for problem in (from_ints, from_strings, from_fractions):
        assert problem == from_fractions
        assert hash(problem) == hash(from_fractions)
        assert problem.objective == (F(1), F(0))
        assert problem.nonnegative == (True, True)
        for coeffs, _, bound in problem.constraints:
            assert all(type(c) is Fraction for c in (*coeffs, bound))
        assert all(type(c) is Fraction for c in problem.objective)
    half = LpProblem(("1/2",), ((("1/2",), "<=", "3/4"),))
    assert half.objective == (F(1, 2),)
    assert half.constraints == (((F(1, 2),), "<=", F(3, 4)),)
    assert lp_solve(half).witness == (F(3, 2),)


def test_private_sparse_rows_stay_out_of_repr_and_equality():
    (private,) = [f for f in dataclasses.fields(LpProblem) if f.name.startswith("_")]
    assert not (private.init or private.compare or private.repr)
    problem = LpProblem((F(1), F(1)), (((F(1, 2), F(0)), "<=", F(1, 3)),))
    assert private.name not in repr(problem)
    assert repr(problem).startswith("LpProblem(objective=")
    assert problem == LpProblem((F(1), F(1)), (((F(1, 2), F(0)), "<=", F(1, 3)),))


def test_malformed_string_and_int_inputs_rejected():
    with pytest.raises(ShapeError):
        LpProblem((1,), ((("1", "2"), "<=", "1"),))
    with pytest.raises(ShapeError):
        LpProblem((1, 2), (((1, 2), "<=", 1),), nonnegative=(True,))
    with pytest.raises(DomainError):
        LpProblem(("1",), (((1,), "==", 1),))


# --- the integer tableau against the `Fraction` reference tableau -------------

def _assert_same_as_reference(problem: LpProblem) -> None:
    """`lp_solve` against the `Fraction` tableau with the same rule, bit for
    bit, and against Bland's rule, an independent second rule, on status and
    value."""
    got = lp_solve(problem)
    assert got == ReferenceTableau(problem, "dantzig-lex").solve()
    bland = ReferenceTableau(problem, "bland").solve()
    assert (got.status, got.value) == (bland.status, bland.value)
    if got.status == "optimal":
        assert type(got.value) is Fraction
        assert all(type(x) is Fraction for x in got.witness)
        assert satisfies(problem, got.witness)


def _random_lp(draw_int, draw_frac, draw_choice) -> LpProblem:
    """A small LP with every row kind, negative right-hand sides, free
    variables, redundant equalities and non-unit rational coefficients.
    Half the right-hand sides are 0, so ratio-test ties (degenerate pivots)
    are common and the lexicographic rule decides."""
    n = draw_int(1, 4)
    rows = []
    for _ in range(draw_int(1, 5)):
        coeffs = tuple(draw_frac() for _ in range(n))
        bound = draw_frac() * 2 if draw_int(0, 1) else F(0)
        rows.append((coeffs, draw_choice(["<=", ">=", "="]), bound))
    equalities = [row for row in rows if row[1] == "="]
    if equalities and draw_int(0, 1):  # a redundant copy, scaled
        coeffs, _, bound = draw_choice(equalities)
        k = draw_choice([F(-2), F(1, 3), F(3, 2)])
        rows.append((tuple(k * c for c in coeffs), "=", k * bound))
    nonnegative = tuple(draw_int(0, 3) > 0 for _ in range(n))
    for j in range(n):  # usually a box, so most problems are bounded
        if draw_int(0, 4):
            unit = tuple(F(int(k == j)) for k in range(n))
            rows.append((unit, "<=", F(5)))
            if not nonnegative[j]:
                rows.append((unit, ">=", F(-5)))
    order = list(range(len(rows)))
    random.Random(draw_int(0, 10**6)).shuffle(order)
    return LpProblem(
        tuple(draw_frac() for _ in range(n)),
        tuple(rows[i] for i in order),
        maximize=bool(draw_int(0, 1)),
        nonnegative=nonnegative,
    )


_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_tableau_matches_rational_tableau(data):
    problem = _random_lp(
        lambda lo, hi: data.draw(st.integers(lo, hi)),
        lambda: data.draw(_coefficients),
        lambda options: data.draw(st.sampled_from(options)),
    )
    _assert_same_as_reference(problem)


def test_integer_tableau_matches_rational_tableau_on_every_path(monkeypatch):
    """A seeded sweep that must reach phase 1, artificials driven out on a
    negative pivot, dropped redundant rows, and every status."""
    seen = {"negative drive-out pivot": 0, "redundant row": 0}
    pivot, drive_out = exact_lp._Tableau._pivot, exact_lp._Tableau._drive_out_artificials

    def spy_pivot(self, row, col, red):
        if red is None and self.matrix[row][col] < 0:
            seen["negative drive-out pivot"] += 1
        return pivot(self, row, col, red)

    def spy_drive_out(self):
        m = self.m
        drive_out(self)
        seen["redundant row"] += m - self.m

    monkeypatch.setattr(exact_lp._Tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(exact_lp._Tableau, "_drive_out_artificials", spy_drive_out)
    rng = random.Random(5)
    statuses = set()
    for _ in range(400):
        problem = _random_lp(
            rng.randint,
            lambda: F(rng.randint(-6, 6), rng.randint(1, 4)),
            rng.choice,
        )
        _assert_same_as_reference(problem)
        statuses.add(lp_solve(problem).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert seen["negative drive-out pivot"] and seen["redundant row"]


def _shifted_box() -> Correlation:
    """A signalling 2x2 box: each player outputs the other's input."""
    dens = []
    for x in range(4):
        y1, y2 = divmod(x, 2)
        for a in range(4):
            dens.append(F(int(divmod(a, 2) == (y2, y1))))
    return Correlation((2, 2), (2, 2), tuple(dens))


_PACKAGE_LPS = {
    "NS value of a3": lambda: value_ns(anticorrelation_game()),
    "SNOS value of a3": lambda: value_snos(anticorrelation_game()),
    "SNOS value of chsh repeated twice": lambda: value_snos(repeat_game(chsh_game(), 2), rounds=2),
    "NS value of a random 2-player game repeated twice": lambda: value_ns(
        repeat_game(random_game(9002, 2, (2, 2), (2, 2), full_support=True), 2), rounds=2
    ),
    # a tie the lexicographic rule settles on a column where both tied rows
    # are nonzero, so the rows' integer scales must cancel
    "SNOS value of random game 10021 repeated twice": lambda: value_snos(
        repeat_game(random_game(10021, 2, (2, 2), (2, 2), full_support=True), 2), rounds=2
    ),
    "nearest_ns of a signalling box": lambda: nearest_ns((F(1, 4),) * 4, _shifted_box()),
}


@pytest.mark.parametrize("name", sorted(_PACKAGE_LPS))
def test_integer_tableau_matches_rational_tableau_on_package_lps(monkeypatch, name):
    """The degenerate correlation-polytope LPs the package solves, where the
    lexicographic tie-break decides most pivots."""
    captured = []

    def spy(problem, **options):
        captured.append(problem)
        return lp_solve(problem, **options)

    monkeypatch.setattr(values, "lp_solve", spy)
    _PACKAGE_LPS[name]()
    assert captured
    for problem in captured:
        _assert_same_as_reference(problem)
