"""Exact-rational linear programming by two-phase tableau simplex.

The solver never touches floating point: every answer is an exact rational,
so optima such as 2/3 are reproduced literally rather than to a tolerance.

Integer rows
------------
`LpProblem` keeps its public fields dense and in `Fraction`, and records in
the same pass the nonzeros of each row as integers over the row's common
denominator.  The tableau is built from those nonzeros and holds only Python
ints.  A tableau row ``R`` maps its nonzero columns, and its right-hand side,
to ints; it stands for the rational row ``R / R[basis[i]]``, so the entry in
the row's basic column is the row's positive denominator.  A pivot on entry
``p > 0`` of row ``P`` replaces every other row by ``R * p - R[c] * P``
divided by the gcd of its entries (a negative pivot entry, met when an
artificial is driven out, negates ``P`` first).  No entry is ever a rational
and no gcd is taken per entry (Edmonds, J. Res. NBS 71B, 1967).  The
reduced-cost row is kept the same way: ints over one positive denominator,
which no decision needs.

Every pivot decision compares the same rationals a `Fraction` tableau
would: a reduced cost's sign is the sign of its int, and the ratio test and
the lexicographic tie-break compare quotients of two entries of one row, in
which the row's scale cancels, by cross-multiplication.  So bases, values
and witnesses equal those of a `Fraction` tableau with the same pivot rule,
bit for bit; ``tests/_reference_lp.py`` keeps one as the oracle.

Pivoting and anti-cycling
-------------------------
The one rule, ``"dantzig-lex"``, prices by most-negative reduced cost and
breaks ratio-test ties with the lexicographic rule, which is equivalent to
solving the symbolically perturbed problem b + (eps, eps^2, ..): every pivot
strictly decreases the perturbed objective, so cycling is impossible and the
long degenerate stalls typical of correlation-polytope LPs are avoided.  The
rule is deterministic (ties resolve by lowest index), so identical problems
yield bit-for-bit identical solutions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Literal

from .errors import DomainError, ShapeError

Relation = Literal["<=", "=", ">="]
_RELATIONS = ("<=", "=", ">=")
_FLIP = {"<=": ">=", ">=": "<=", "=": "="}

# a row's nonzeros as integers over its common denominator `scale`:
# (columns, coefficients * scale, relation, bound * scale, scale)
_SparseRow = tuple[tuple[int, ...], tuple[int, ...], str, int, int]


@dataclass(frozen=True)
class LpProblem:
    """max/min  c.x  subject to rows (coeffs, relation, bound), x_j >= 0 flags.

    `nonnegative[j]` marks variable j as sign-constrained; free variables are
    handled by an internal positive/negative split.  Coefficients may be
    given as ints, ``"p/q"`` strings or Fractions; they are stored as
    Fractions.
    """

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[Fraction, ...], Relation, Fraction], ...]
    maximize: bool = True
    nonnegative: tuple[bool, ...] | None = None
    _rows: tuple[_SparseRow, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", _fractions(self.objective))
        n = len(self.objective)
        if n == 0:
            raise ShapeError("LP needs at least one variable")
        rows, sparse = [], []
        for pos, (coeffs, relation, bound) in enumerate(self.constraints):
            coeffs = _fractions(coeffs)
            if len(coeffs) != n:
                raise ShapeError(
                    f"constraint {pos} has {len(coeffs)} coefficients, expected {n}"
                )
            if relation not in _RELATIONS:
                raise DomainError(f"constraint {pos}: unknown relation {relation!r}")
            bound = bound if type(bound) is Fraction else Fraction(bound)
            rows.append((coeffs, relation, bound))
            cols = tuple(compress(range(n), coeffs))
            nonzeros = [coeffs[j] for j in cols]
            scale = lcm(bound.denominator, *(c.denominator for c in nonzeros))
            ints = tuple(c.numerator * (scale // c.denominator) for c in nonzeros)
            scaled_bound = bound.numerator * (scale // bound.denominator)
            sparse.append((cols, ints, relation, scaled_bound, scale))
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "_rows", tuple(sparse))
        flags = self.nonnegative if self.nonnegative is not None else (True,) * n
        flags = tuple(bool(f) for f in flags)
        if len(flags) != n:
            raise ShapeError("nonnegative flags length differs from variable count")
        object.__setattr__(self, "nonnegative", flags)

    @property
    def n_vars(self) -> int:
        return len(self.objective)


def _fractions(values: Sequence) -> tuple[Fraction, ...]:
    """The values as a tuple of Fractions, keeping those that already are."""
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    return tuple(c if type(c) is Fraction else Fraction(c) for c in values)


@dataclass(frozen=True)
class LpSolution:
    status: Literal["optimal", "infeasible", "unbounded"]
    value: Fraction | None = None
    witness: tuple[Fraction, ...] | None = None


def lp_solve(problem: LpProblem) -> LpSolution:
    """Solve to a proven exact optimum, or report infeasible/unbounded."""
    return _Tableau(problem).solve()


def residuals(problem: LpProblem, point: Sequence[Fraction]) -> list[Fraction]:
    """Signed slack of each constraint at `point` (>= 0 means satisfied; an
    equality is satisfied iff its residual is exactly 0)."""
    if len(point) != problem.n_vars:
        raise ShapeError("point length differs from variable count")
    out = []
    for coeffs, relation, bound in problem.constraints:
        lhs = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
        out.append(bound - lhs if relation == "<=" else lhs - bound)
    return out


def satisfies(problem: LpProblem, point: Sequence[Fraction]) -> bool:
    """Exact feasibility check of `point` (including sign constraints)."""
    for flag, x in zip(problem.nonnegative, point):
        if flag and x < 0:
            return False
    for (coeffs, relation, bound), res in zip(problem.constraints, residuals(problem, point)):
        if relation == "=" and res != 0:
            return False
        if relation != "=" and res < 0:
            return False
    return True


def objective_value(problem: LpProblem, point: Sequence[Fraction]) -> Fraction:
    return sum((c * x for c, x in zip(problem.objective, point)), Fraction(0))


_RHS = -1  # the key of a tableau row's right-hand side


class _Tableau:
    """Standard-form tableau  min c.x, Ax = b, x >= 0  over sparse integer rows.

    `matrix[i]` maps each column where row i is nonzero, and `_RHS`, to an
    int; it stands for the rational row ``matrix[i] / matrix[i][basis[i]]``
    (see the module docstring).  The reduced costs are kept the same way.
    """

    def __init__(self, problem: LpProblem) -> None:
        self.problem = problem
        self._build_standard_form()

    # -- construction ------------------------------------------------------

    def _build_standard_form(self) -> None:
        prob = self.problem
        # variable split: column(s) per original variable
        self.var_cols: list[tuple[int, int | None]] = []
        cols = 0
        for flag in prob.nonnegative:
            if flag:
                self.var_cols.append((cols, None))
                cols += 1
            else:
                self.var_cols.append((cols, cols + 1))
                cols += 2

        # min (sign c).x, scaled to integers by a positive common denominator
        sign = -1 if prob.maximize else 1
        scale = lcm(*(c.denominator for c in prob.objective))
        self.cost: dict[int, int] = {}
        for (pos, neg), c in zip(self.var_cols, prob.objective):
            if c:
                v = sign * c.numerator * (scale // c.denominator)
                self.cost[pos] = v
                if neg is not None:
                    self.cost[neg] = -v

        # a negative right-hand side flips its row; then slack/surplus columns
        # (row order), then artificials for rows whose start column cannot
        # serve as an initial basis (>= and = rows)
        m = len(prob._rows)
        self.m = m
        matrix: list[dict[int, int]] = []
        basis: list[int] = [0] * m
        art_rows: list[int] = []
        for i, (nz_cols, ints, relation, bound, scale) in enumerate(prob._rows):
            flip = 1
            if bound < 0:
                flip, relation = -1, _FLIP[relation]
            row = {_RHS: flip * bound} if bound else {}
            for j, v in zip(nz_cols, ints):
                pos, neg = self.var_cols[j]
                row[pos] = flip * v
                if neg is not None:
                    row[neg] = -flip * v
            if relation == "<=":
                row[cols] = scale
                basis[i] = cols
            elif relation == ">=":
                row[cols] = -scale
            if relation != "=":
                cols += 1
            if relation != "<=":
                art_rows.append(i)
            matrix.append(row)
        self.artificial_start = cols
        for i in art_rows:
            matrix[i][cols] = prob._rows[i][4]
            basis[i] = cols
            cols += 1

        self.width = cols
        self.matrix = matrix
        self.basis = basis
        self.n_structural = self.artificial_start  # columns eligible in phase 2

    # -- simplex core ------------------------------------------------------

    def solve(self) -> LpSolution:
        if self.artificial_start < self.width:
            if not self._run_phase(phase=1):
                return LpSolution(status="infeasible")
            self._drive_out_artificials()
            self._drop_artificial_columns()
        status = self._run_phase(phase=2)
        if status == "unbounded":
            return LpSolution(status="unbounded")
        witness = self._extract_witness()
        return LpSolution(
            status="optimal", value=objective_value(self.problem, witness), witness=witness
        )

    def _reduced_costs(self, cost: dict[int, int]) -> dict[int, int]:
        red = dict(cost)
        for i in range(self.m):
            if self.basis[i] in red:
                red = _eliminate(red, self.basis[i], self.matrix[i])
        return red

    def _run_phase(self, phase: int) -> bool | str:
        if phase == 1:
            cost = dict.fromkeys(range(self.artificial_start, self.width), 1)
            limit = self.width
        else:
            cost = self.cost
            limit = self.n_structural
        red = self._reduced_costs(cost)
        # fixed column order for lexicographic comparisons: current basis
        # columns (identity block) first; rows start lex-positive in it
        in_basis = set(self.basis)
        lex_order = list(self.basis) + [j for j in range(self.width) if j not in in_basis]
        lex_pos = {col: pos for pos, col in enumerate(lex_order)}

        while True:
            enter = self._choose_entering(red, limit)
            if enter is None:
                break
            leave = self._choose_leaving(enter, lex_pos)
            if leave is None:
                if phase == 1:  # phase-1 objective is bounded below by 0
                    raise AssertionError("phase 1 cannot be unbounded")
                return "unbounded"
            red = self._pivot(leave, enter, red)
        if phase == 1:
            return not any(
                self.matrix[i].get(_RHS)
                for i in range(self.m)
                if self.basis[i] >= self.artificial_start
            )
        return "optimal"

    def _choose_entering(self, red: dict[int, int], limit: int) -> int | None:
        negative = [j for j, v in red.items() if v < 0 and 0 <= j < limit]
        if not negative:
            return None
        return min(negative, key=lambda j: (red[j], j))  # the first most negative

    def _choose_leaving(self, enter: int, lex_pos: dict[int, int]) -> int | None:
        # the ratio rhs/coeff of a row does not depend on the row's scale
        candidates: list[int] = []
        best_rhs = best_coeff = 0
        for i, row in enumerate(self.matrix):
            coeff = row.get(enter, 0)
            if coeff > 0:
                rhs = row.get(_RHS, 0)
                if not candidates or rhs * best_coeff < best_rhs * coeff:
                    best_rhs, best_coeff, candidates = rhs, coeff, [i]
                elif rhs * best_coeff == best_rhs * coeff:
                    candidates.append(i)
        if len(candidates) <= 1:
            return candidates[0] if candidates else None
        # lexicographic tie-break: the least row/coeff in the fixed column
        # order.  Column by column keep the candidates whose entry/coeff is
        # least; columns where every candidate is zero keep them all, so only
        # the candidates' joint support is scanned
        tied = [(i, self.matrix[i], self.matrix[i][enter]) for i in candidates]
        support = set().union(*(row.keys() for _, row, _ in tied))
        support.discard(_RHS)
        for col in sorted(support, key=lex_pos.__getitem__):
            least, least_coeff = tied[0][1].get(col, 0), tied[0][2]
            for _, row, coeff in tied[1:]:
                entry = row.get(col, 0)
                if entry * least_coeff < least * coeff:
                    least, least_coeff = entry, coeff
            tied = [t for t in tied if t[1].get(col, 0) * least_coeff == least * t[2]]
            if len(tied) == 1:
                break
        return tied[0][0]

    def _pivot(self, row: int, col: int, red: dict[int, int] | None) -> dict[int, int] | None:
        """Pivot on (row, col); returns the updated reduced costs."""
        matrix = self.matrix
        prow = matrix[row]
        if prow[col] < 0:  # the new denominator must be positive
            prow = matrix[row] = {k: -v for k, v in prow.items()}
        for i, target in enumerate(matrix):
            if col in target and i != row:
                matrix[i] = _eliminate(target, col, prow)
        self.basis[row] = col
        if red is not None and col in red:
            red = _eliminate(red, col, prow)
        return red

    def _drive_out_artificials(self) -> None:
        """Pivot zero-valued artificials out of the basis; drop redundant rows."""
        keep: list[int] = []
        for i in range(self.m):
            if self.basis[i] < self.artificial_start:
                keep.append(i)
                continue
            structural = [j for j in self.matrix[i] if 0 <= j < self.n_structural]
            if not structural:
                continue  # redundant constraint: drop the row
            self._pivot(i, min(structural), None)
            keep.append(i)
        if len(keep) != self.m:
            self.matrix = [self.matrix[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
            self.m = len(keep)

    def _drop_artificial_columns(self) -> None:
        start = self.artificial_start
        if start == self.width:
            return
        self.matrix = [{k: v for k, v in row.items() if k < start} for row in self.matrix]
        self.width = start

    def _extract_witness(self) -> tuple[Fraction, ...]:
        values = [Fraction(0)] * self.width
        for row, col in zip(self.matrix, self.basis):
            values[col] = Fraction(row.get(_RHS, 0), row[col])
        return tuple(
            values[pos] if neg is None else values[pos] - values[neg]
            for pos, neg in self.var_cols
        )


def _eliminate(target: dict[int, int], col: int, prow: dict[int, int]) -> dict[int, int]:
    """target * p - target[col] * prow for the pivot p = prow[col] > 0, as a
    primitive vector (the factors' gcd is taken out first)."""
    pivot, factor = prow[col], target[col]
    g = gcd(factor, pivot)
    factor //= g
    scale = pivot // g
    if scale != 1:
        target = {k: v * scale for k, v in target.items()}
    for j, v in prow.items():
        new = target.get(j, 0) - factor * v
        if new:
            target[j] = new
        else:
            del target[j]
    g = gcd(*target.values())
    return target if g <= 1 else {k: v // g for k, v in target.items()}
