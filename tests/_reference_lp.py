"""A `Fraction` tableau simplex with the pivot rule of `nsgames.exact_lp`,
kept as a test oracle, and Bland's smallest-index rule as an independent
second rule.

It is the rational tableau the package solved with before its tableau moved
to integer rows, with one fix: the objective is laid out over the split
columns of free variables.  The integer tableau takes the same pivots, so on
every problem both return the same status, value and witness, bit for bit:

    _Tableau(problem, "dantzig-lex").solve() == lp_solve(problem)
"""

from __future__ import annotations

from fractions import Fraction

from nsgames.errors import DomainError
from nsgames.exact_lp import LpProblem, LpSolution, objective_value


class _Tableau:
    """Dense standard-form tableau  min c.x, Ax = b, x >= 0."""

    def __init__(self, problem: LpProblem, pivoting: str) -> None:
        if pivoting not in ("dantzig-lex", "bland"):
            raise DomainError(f"unknown pivoting rule {pivoting!r}")
        self.problem = problem
        self.bland = pivoting == "bland"
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
        self.n_split = cols

        rows: list[list] = []
        rhs: list = []
        relations: list[str] = []
        sign = -1 if prob.maximize else 1
        # the one change from the rational tableau this file freezes: costs go
        # to the split columns (that tableau put cost j on column j, which is
        # wrong once a free variable shifts the columns)
        self.cost = [Fraction(0)] * cols
        for (pos, neg), c in zip(self.var_cols, prob.objective):
            self.cost[pos] = sign * c
            if neg is not None:
                self.cost[neg] = -sign * c

        for coeffs, relation, bound in prob.constraints:
            row = [Fraction(0)] * cols
            for j, c in enumerate(coeffs):
                if c == 0:
                    continue
                pos, neg = self.var_cols[j]
                q = Fraction(c.numerator, c.denominator)
                row[pos] = q
                if neg is not None:
                    row[neg] = -q
            b = Fraction(bound.numerator, bound.denominator)
            if b < 0:
                row = [-v for v in row]
                b = -b
                relation = {"<=": ">=", ">=": "<=", "=": "="}[relation]
            rows.append(row)
            rhs.append(b)
            relations.append(relation)

        # slack/surplus columns (row order), then artificials for rows whose
        # start column cannot serve as an initial basis (>= and = rows)
        m = len(rows)
        self.m = m
        slack_cols: list[int | None] = [None] * m
        surplus_cols: list[int | None] = [None] * m
        for i, relation in enumerate(relations):
            if relation == "<=":
                slack_cols[i] = cols
                cols += 1
            elif relation == ">=":
                surplus_cols[i] = cols
                cols += 1
        artificial_start = cols
        art_rows = [i for i, relation in enumerate(relations) if relation != "<="]
        width = artificial_start + len(art_rows)

        matrix: list[list] = []
        basis: list[int] = [0] * m
        for i in range(m):
            full = rows[i] + [Fraction(0)] * (width - self.n_split)
            if slack_cols[i] is not None:
                full[slack_cols[i]] = Fraction(1)
                basis[i] = slack_cols[i]
            if surplus_cols[i] is not None:
                full[surplus_cols[i]] = Fraction(-1)
            matrix.append(full)
        for offset, i in enumerate(art_rows):
            col = artificial_start + offset
            matrix[i][col] = Fraction(1)
            basis[i] = col

        self.width = width
        self.matrix = matrix
        self.rhs = rhs
        self.basis = basis
        self.artificial_start = artificial_start
        self.n_structural = artificial_start  # columns eligible in phase 2

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

    def _reduced_costs(self, cost: list) -> list:
        red = list(cost) + [Fraction(0)] * (self.width - len(cost))
        for i in range(self.m):
            cb = red[self.basis[i]]
            if cb != 0:
                row = self.matrix[i]
                red = [r - cb * v for r, v in zip(red, row)]
        return red

    def _run_phase(self, phase: int) -> bool | str:
        if phase == 1:
            cost = [Fraction(0)] * self.artificial_start + [Fraction(1)] * (
                self.width - self.artificial_start
            )
            limit = self.width
        else:
            cost = list(self.cost)
            limit = self.n_structural
        red = self._reduced_costs(cost)
        # fixed column order for lexicographic comparisons: current basis
        # columns (identity block) first; rows start lex-positive in it
        in_basis = set(self.basis)
        lex_order = list(self.basis) + [j for j in range(self.width) if j not in in_basis]

        while True:
            enter = self._choose_entering(red, limit)
            if enter is None:
                break
            leave = self._choose_leaving(enter, lex_order)
            if leave is None:
                if phase == 1:  # phase-1 objective is bounded below by 0
                    raise AssertionError("phase 1 cannot be unbounded")
                return "unbounded"
            self._pivot(leave, enter, red)
        if phase == 1:
            total = Fraction(0)
            for i in range(self.m):
                if self.basis[i] >= self.artificial_start:
                    total += self.rhs[i]
            return total == 0
        return "optimal"

    def _choose_entering(self, red: list, limit: int) -> int | None:
        if self.bland:
            for j in range(limit):
                if red[j] < 0:
                    return j
            return None
        best = None
        best_val = 0
        for j in range(limit):
            v = red[j]
            if v < best_val:
                best_val = v
                best = j
        return best

    def _choose_leaving(self, enter: int, lex_order: list[int]) -> int | None:
        matrix, rhs = self.matrix, self.rhs
        candidates: list[int] = []
        best_ratio = None
        for i in range(self.m):
            coeff = matrix[i][enter]
            if coeff > 0:
                ratio = rhs[i] / coeff
                if best_ratio is None or ratio < best_ratio:
                    best_ratio = ratio
                    candidates = [i]
                elif ratio == best_ratio:
                    candidates.append(i)
        if best_ratio is None:
            return None
        if len(candidates) == 1:
            return candidates[0]
        if self.bland:
            return min(candidates, key=lambda i: self.basis[i])
        # lexicographic tie-break over the fixed column order
        best = candidates[0]
        best_row, best_coeff = matrix[best], matrix[best][enter]
        for i in candidates[1:]:
            row, coeff = matrix[i], matrix[i][enter]
            for col in lex_order:
                lhs = row[col] * best_coeff  # compare row/coeff vs best_row/best_coeff
                rhs_v = best_row[col] * coeff
                if lhs != rhs_v:
                    if lhs < rhs_v:
                        best, best_row, best_coeff = i, row, coeff
                    break
        return best

    def _pivot(self, row: int, col: int, red: list) -> None:
        matrix, rhs = self.matrix, self.rhs
        prow = matrix[row]
        pivot = prow[col]
        if pivot != 1:
            inv = 1 / pivot
            prow = [v * inv for v in prow]
            matrix[row] = prow
            rhs[row] = rhs[row] * inv
        prhs = rhs[row]
        nz = [j for j, v in enumerate(prow) if v]
        dense = len(nz) * 2 >= len(prow)
        for i in range(self.m):
            if i == row:
                continue
            factor = matrix[i][col]
            if factor:
                target = matrix[i]
                if dense:
                    matrix[i] = [a - factor * b for a, b in zip(target, prow)]
                else:
                    for j in nz:
                        target[j] -= factor * prow[j]
                if prhs:
                    rhs[i] -= factor * prhs
        factor = red[col]
        if factor:
            for j in nz:
                red[j] -= factor * prow[j]
        self.basis[row] = col

    def _drive_out_artificials(self) -> None:
        """Pivot zero-valued artificials out of the basis; drop redundant rows."""
        keep: list[int] = []
        zeros = [Fraction(0)] * self.width
        for i in range(self.m):
            if self.basis[i] < self.artificial_start:
                keep.append(i)
                continue
            prow = self.matrix[i]
            target = next((j for j in range(self.n_structural) if prow[j] != 0), None)
            if target is None:
                continue  # redundant constraint: drop the row
            self._pivot(i, target, zeros)
            keep.append(i)
        if len(keep) != self.m:
            self.matrix = [self.matrix[i] for i in keep]
            self.rhs = [self.rhs[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
            self.m = len(keep)

    def _drop_artificial_columns(self) -> None:
        start = self.artificial_start
        if start == self.width:
            return
        self.matrix = [row[:start] for row in self.matrix]
        self.width = start

    def _extract_witness(self) -> tuple[Fraction, ...]:
        values = [Fraction(0)] * self.width
        for i in range(self.m):
            values[self.basis[i]] = self.rhs[i]
        out = []
        for pos, neg in self.var_cols:
            v = values[pos] - (values[neg] if neg is not None else 0)
            out.append(Fraction(int(v.numerator), int(v.denominator)))
        return tuple(out)
