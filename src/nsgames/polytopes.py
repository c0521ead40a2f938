"""Membership, witnesses and distance/fidelity functionals for the
no-signalling (NS) and sub-no-signalling (SNOS) correlation sets.

Definitions
-----------
A correlation P(a|x) >= 0 is **sub-no-signalling** when for every strict
subset I of players (the empty set included) there are probability
distributions Q(.|x_I) on A_I with  P(a_I|x) <= Q(a_I|x_I)  for all a_I, x.
Since the minimal candidate dominator is  M_I(a_I, x_I) = max over x_{I^c} of
P(a_I|x), membership reduces to the closed form

    for every I and every x_I:  sum_{a_I} M_I(a_I, x_I) <= 1.

For I = empty this reads: total mass at most 1 per input.

P is **no-signalling** when it is normalized per input and each subset
marginal P(a_I|x) is independent of the inputs outside I.  For equalities it
suffices to check the complements of singletons (mode "singles-complement",
the default); mode "all-subsets" checks every strict subset.  No analogous
reduction is used for SNOS membership: is_snos always checks all strict
subsets.

The marginal-consistency distance (1/2) || T.R - Q_{A_I X} ||_1, minimized
over conditionals R, has a closed form and needs no LP: per x_I block, the
unit of mass is filled in along the linear pieces of its convex objective in
increasing order of slope, ties broken by (slope, a_I, segment start).

Exactness: membership, dominators, trace and consistency distances are exact
rationals; fidelity-based quantities are binary64 (square roots are
irrational) and comparisons against them use absolute tolerance 1e-9 unless
stated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import _mixedradix as mr
from .errors import DomainError, ShapeError
from .game_model import (
    Correlation,
    JointDistribution,
    SubsetIndex,
    _subset_sums,
    marginal,
    singles_complement_subsets,
    strict_subsets,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

NS_MODE_SINGLES = "singles-complement"
NS_MODE_ALL = "all-subsets"


@dataclass(frozen=True)
class MarginalBound:
    """A table M_I(a_I, x_I) >= 0 dominating the I-marginal of a correlation.

    Layout: x_I major, a_I minor.  For a SNOS witness the rows sum to exactly
    one (the minimal dominator padded up to a probability distribution).
    """

    subset: SubsetIndex
    subset_inputs: tuple[int, ...]
    subset_outputs: tuple[int, ...]
    table: tuple[Fraction, ...]

    @property
    def n_inputs(self) -> int:
        return mr.table_size(self.subset_inputs)

    @property
    def n_outputs(self) -> int:
        return mr.table_size(self.subset_outputs)

    def value(self, x_i_index: int, a_i_index: int) -> Fraction:
        return self.table[x_i_index * self.n_outputs + a_i_index]

    def row_sum(self, x_i_index: int) -> Fraction:
        n_a = self.n_outputs
        return sum(self.table[x_i_index * n_a : (x_i_index + 1) * n_a], _ZERO)


@dataclass(frozen=True)
class Violation:
    """Locates the first failed condition of a membership check.

    kind is one of "negative-entry", "excess-mass" (SNOS), "normalization"
    and "signalling" (NS); `location` pins down the offending indices and
    `excess` quantifies the violation where meaningful.
    """

    subset: SubsetIndex | None
    kind: str
    location: tuple
    excess: Fraction | None = None


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witnesses: tuple[MarginalBound, ...] | None = None
    violation: Violation | None = None

    def __post_init__(self) -> None:
        if self.member and (self.witnesses is None or self.violation is not None):
            raise DomainError("member reports carry witnesses and no violation")
        if not self.member and (self.violation is None or self.witnesses is not None):
            raise DomainError("non-member reports carry a violation and no witnesses")


def _find_negative_entry(correlation: Correlation) -> Violation | None:
    n_a = correlation.n_outputs
    for idx, p in enumerate(correlation.densities):
        if p < 0:
            x, a = divmod(idx, n_a)
            return Violation(None, "negative-entry", (x, a), p)
    return None


def minimal_dominating_marginal(correlation: Correlation, subset: SubsetIndex) -> MarginalBound:
    """Pointwise-minimal M_I(a_I, x_I) = max over x_{I^c} of P(a_I | x).

    Any valid SNOS dominator Q(.|x_I) dominates this table pointwise; the
    correlation satisfies the subset-I SNOS condition iff every row of this
    table sums to at most 1.
    """
    if subset.players != correlation.players:
        raise ShapeError("subset declared for a different player count")
    marg = marginal(correlation, subset)
    in_sizes = tuple(correlation.input_alphabets[i] for i in subset.members)
    n_x_i = mr.table_size(in_sizes)
    n_a_i = marg.n_subset_outputs
    proj = mr.project(correlation.input_alphabets, subset.members)
    table = [_ZERO] * (n_x_i * n_a_i)
    for x in range(correlation.n_inputs):
        row = x * n_a_i
        out_row = proj[x] * n_a_i
        for a_i in range(n_a_i):
            v = marg.entries[row + a_i]
            if v > table[out_row + a_i]:
                table[out_row + a_i] = v
    return MarginalBound(subset, in_sizes, tuple(marg.subset_outputs), tuple(table))


def _pad_to_distribution(bound: MarginalBound) -> MarginalBound:
    """Promote a dominator with row slack to exact probability distributions.

    The deficit of each x_I row is added to the lexicographically first a_I,
    keeping reports reproducible.
    """
    n_a = bound.n_outputs
    table = list(bound.table)
    for x_i in range(bound.n_inputs):
        deficit = _ONE - bound.row_sum(x_i)
        if deficit != 0:
            table[x_i * n_a] += deficit
    return MarginalBound(bound.subset, bound.subset_inputs, bound.subset_outputs, tuple(table))


def is_snos(correlation: Correlation) -> MembershipReport:
    """Exact SNOS membership; witnesses are padded minimal dominators.

    All strict subsets are checked, the empty set first (it reads: total mass
    at most 1 per input).
    """
    negative = _find_negative_entry(correlation)
    if negative is not None:
        return MembershipReport(member=False, violation=negative)
    witnesses = []
    for subset in strict_subsets(correlation.players):
        bound = minimal_dominating_marginal(correlation, subset)
        for x_i in range(bound.n_inputs):
            total = bound.row_sum(x_i)
            if total > 1:
                return MembershipReport(
                    member=False,
                    violation=Violation(
                        subset,
                        "excess-mass",
                        mr.decode(x_i, bound.subset_inputs),
                        total - 1,
                    ),
                )
        witnesses.append(_pad_to_distribution(bound))
    return MembershipReport(member=True, witnesses=tuple(witnesses))


def is_ns(correlation: Correlation, mode: str = NS_MODE_SINGLES) -> MembershipReport:
    """Exact NS membership: per-input normalization plus marginal locality.

    mode "singles-complement" checks I = [l] \\ {i} only (sufficient for the
    equality constraints); "all-subsets" checks every nonempty strict subset.
    """
    if mode not in (NS_MODE_SINGLES, NS_MODE_ALL):
        raise DomainError(f"unknown NS mode {mode!r}")
    negative = _find_negative_entry(correlation)
    if negative is not None:
        return MembershipReport(member=False, violation=negative)

    players = correlation.players
    empty = SubsetIndex(players, ())
    for x in range(correlation.n_inputs):
        mass = correlation.mass(x)
        if mass != 1:
            return MembershipReport(
                member=False,
                violation=Violation(
                    empty,
                    "normalization",
                    mr.decode(x, correlation.input_alphabets),
                    mass - 1,
                ),
            )
    witnesses = [
        MarginalBound(empty, (), (), (_ONE,))  # normalization witness: the trivial p.d.
    ]
    if mode == NS_MODE_SINGLES:
        subsets = singles_complement_subsets(players)
    else:
        subsets = strict_subsets(players, include_empty=False)
    for subset in subsets:
        marg = marginal(correlation, subset)
        in_sizes = tuple(correlation.input_alphabets[i] for i in subset.members)
        proj = mr.project(correlation.input_alphabets, subset.members)
        n_a_i = marg.n_subset_outputs
        seen: dict[int, int] = {}
        table = [_ZERO] * (mr.table_size(in_sizes) * n_a_i)
        for x in range(correlation.n_inputs):
            x_i = proj[x]
            if x_i in seen:
                ref = seen[x_i]
                for a_i in range(n_a_i):
                    lhs = marg.entries[x * n_a_i + a_i]
                    rhs = marg.entries[ref * n_a_i + a_i]
                    if lhs != rhs:
                        return MembershipReport(
                            member=False,
                            violation=Violation(
                                subset,
                                "signalling",
                                (
                                    mr.decode(a_i, marg.subset_outputs),
                                    mr.decode(x, correlation.input_alphabets),
                                    mr.decode(ref, correlation.input_alphabets),
                                ),
                                lhs - rhs,
                            ),
                        )
            else:
                seen[x_i] = x
                for a_i in range(n_a_i):
                    table[x_i * n_a_i + a_i] = marg.entries[x * n_a_i + a_i]
        witnesses.append(
            MarginalBound(subset, in_sizes, tuple(marg.subset_outputs), tuple(table))
        )
    return MembershipReport(member=True, witnesses=tuple(witnesses))


# --- joint-distribution functionals ----------------------------------------


def _check_joint_and_target(
    joint: JointDistribution, target: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    target = tuple(Fraction(t) for t in target)
    if len(target) != joint.n_inputs:
        raise ShapeError("target distribution length differs from the joint's input table")
    if any(t < 0 for t in target):
        raise DomainError("target distribution entries must be non-negative")
    if sum(target, _ZERO) != 1:
        raise DomainError("target distribution must be normalized")
    if not joint.is_normalized():
        raise DomainError("joint distribution must be normalized")
    return target


def _joint_subset_marginal(joint: JointDistribution, subset: SubsetIndex) -> list[Fraction]:
    """Q(a_I, x) for all (x major, a_I minor)."""
    return _subset_sums(joint.entries, joint.output_alphabets, subset.members)


def marginal_consistency_distance(
    joint: JointDistribution, target: Sequence[Fraction], subset: SubsetIndex
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """min over conditionals R(a_I|x_I) of (1/2) || T.R - Q_{A_I X} ||_1.

    The objective splits into one term g(R(a_I|x_I)) per (x_I, a_I), with
    g(r) = (1/2) sum over the x in block x_I of |T(x) r - Q(a_I, x)|: convex
    and piecewise linear, with kinks at Q/T where T(x) > 0 (inputs with
    T(x) = 0 add the constant Q/2).  So per x_I block, starting from R = 0,
    the unit of mass is filled in along the segments of every g in increasing
    order of slope, ties broken by (slope, a_I, segment start).  Returns the
    distance and the minimizing R (x_I major table); where several R attain
    the minimum, the tie rule picks one.
    """
    if subset.players != joint.players:
        raise ShapeError("subset declared for a different player count")
    target = _check_joint_and_target(joint, target)

    members = subset.members
    n_x_i = mr.table_size([joint.input_alphabets[i] for i in members])
    n_a_i = mr.table_size([joint.output_alphabets[i] for i in members])
    q_marg = _joint_subset_marginal(joint, subset)
    x_proj = mr.project(joint.input_alphabets, members)
    # per (x_I, a_I): the kinks (Q/T, T) of g, which starts at slope -(sum T)/2
    # and whose slope rises by T at each kink
    kinks: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(n_x_i * n_a_i)]
    for x, t in enumerate(target):
        if t:
            row = x_proj[x] * n_a_i
            for a_i in range(n_a_i):
                kinks[row + a_i].append((q_marg[x * n_a_i + a_i] / t, t))

    total = Fraction(1, 2)  # the sum of every g(0) = Q/2: Q is normalized
    r_table = [_ZERO] * (n_x_i * n_a_i)
    for x_i in range(n_x_i):
        # (slope, a_I, start, length); the last segment of each g is unbounded,
        # and a length of 1, the whole budget, stands for it
        segments = []
        for a_i in range(n_a_i):
            points = sorted(kinks[x_i * n_a_i + a_i])
            slope, start = -sum((t for _, t in points), _ZERO) / 2, _ZERO
            for point, t in points:
                if point > start:
                    segments.append((slope, a_i, start, point - start))
                slope, start = slope + t, point
            segments.append((slope, a_i, start, _ONE))
        budget = _ONE
        for slope, a_i, _, length in sorted(segments):
            step = min(length, budget)
            r_table[x_i * n_a_i + a_i] += step
            total += slope * step
            budget -= step
            if not budget:
                break
    return total, tuple(r_table)


def p_epsilon_membership(
    joint: JointDistribution, target: Sequence[Fraction], epsilon: Fraction
) -> bool:
    """True iff every nonempty strict subset's consistency distance is <= epsilon."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise DomainError("epsilon must be non-negative")
    for subset in strict_subsets(joint.players, include_empty=False):
        distance, _ = marginal_consistency_distance(joint, target, subset)
        if distance > epsilon:
            return False
    return True


def fidelity(p: Sequence, q: Sequence) -> float:
    """F(P, Q) = sum_i sqrt(P_i Q_i), in binary64."""
    if len(p) != len(q):
        raise ShapeError("fidelity arguments must share a sample space")
    terms = []
    for a, b in zip(p, q):
        if a < 0 or b < 0:
            raise DomainError("fidelity arguments must be non-negative")
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            terms.append(math.sqrt(float(a * b)))
        else:
            terms.append(math.sqrt(float(a) * float(b)))
    return math.fsum(terms)


def trace_distance(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Exact (1/2) || P - Q ||_1 over a common finite set."""
    if len(p) != len(q):
        raise ShapeError("trace_distance arguments must share a sample space")
    total = _ZERO
    for a, b in zip(p, q):
        total += abs(Fraction(a) - Fraction(b))
    return total / 2


def tilde_fidelity(joint: JointDistribution, target: Sequence[Fraction]) -> float:
    """min over nonempty strict I of  max over R(a_I|x_I) of  F(T.R, Q_{A_I X}).

    The inner maximum has a closed form: with
    c(a_I, x_I) = sum over x_{I^c} of sqrt(T(x) Q(a_I, x)), the optimal R(.|x_I)
    is proportional to c^2 and the x_I block contributes sqrt(sum_{a_I} c^2).
    """
    if joint.players < 2:
        raise DomainError("the functional needs at least two players")
    target = _check_joint_and_target(joint, target)
    best = None
    for subset in strict_subsets(joint.players, include_empty=False):
        members = subset.members
        in_sizes = tuple(joint.input_alphabets[i] for i in members)
        out_sizes = tuple(joint.output_alphabets[i] for i in members)
        n_x_i, n_a_i = mr.table_size(in_sizes), mr.table_size(out_sizes)
        q_marg = _joint_subset_marginal(joint, subset)
        x_proj = mr.project(joint.input_alphabets, members)
        c_parts: dict[tuple[int, int], list[float]] = {}
        for x in range(joint.n_inputs):
            t = target[x]
            if t == 0:
                continue
            x_i = x_proj[x]
            for a_i in range(n_a_i):
                q = q_marg[x * n_a_i + a_i]
                if q == 0:
                    continue
                c_parts.setdefault((x_i, a_i), []).append(math.sqrt(float(t * q)))
        value = math.fsum(
            math.sqrt(
                math.fsum(
                    math.fsum(c_parts.get((x_i, a_i), [0.0])) ** 2 for a_i in range(n_a_i)
                )
            )
            for x_i in range(n_x_i)
        )
        if best is None or value < best:
            best = value
    assert best is not None
    return best
