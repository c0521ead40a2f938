"""Constructive repair procedures: exact maps from approximately-(sub-)
no-signalling objects to exact members of the target sets.

* `bump_up` — two players only: pointwise-increase a sub-no-signalling
  correlation until every dominator inequality is tight, producing a
  no-signalling correlation that dominates the input.  (For three or more
  players no such pointwise lift exists in general, so the operation refuses
  other player counts.)
* `maximal_coupling` / `coupling_adjust` — the maximal-coupling marginal
  replacement: given a joint on S x T and a target marginal on S, produce a
  joint with first marginal exactly the target, second marginal unchanged,
  moving at most ||target - current||_1 of mass.
* `reconstruct_multi_marginal` — per input, the marginal of each block in turn
  is replaced by its prescribed local one through the same maximal coupling,
  applied in place to one mixed-radix digit of the input's nonzero masses;
  the result's block marginals are exactly the local ones, at L1 cost
  eps_0 + sum_j 2 eps_j.
* `reconstruct_snos` — lifts a joint distribution to one block per nonempty
  strict player subset (indexed by ascending subset bitmask), reconstructs,
  and restricts back along the diagonal embedding; the result is exactly
  sub-no-signalling, and for two players exactly no-signalling.
* `nearest_ns` — exact LP projection: the no-signalling correlation
  minimizing (1/2)||T.P'' - T.P'||_1, with the minimum distance; an LP over
  Collins-Gisin coordinates, distance = sum of positive parts.

All arithmetic is exact.  Inputs are checked once, at the entry points; the
coupling core they share checks nothing.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import _mixedradix as mr
from .errors import DomainError, NsGamesError, ShapeError, UnsupportedError
from .exact_lp import LpProblem
from .game_model import Correlation, JointDistribution, _subset_sums, strict_subsets
from .polytopes import NS_MODE_ALL, is_ns, is_snos, trace_distance
from .values import _ns_forms, _ns_nonnegativity, _ns_point, _QuotientRows, _solved

_ZERO = Fraction(0)
_ONE = Fraction(1)


# --- bump-up ----------------------------------------------------------------


def bump_up(correlation: Correlation) -> Correlation:
    """Lift a two-player SNOS correlation to an NS one dominating it pointwise.

    Sweeps cells in lexicographic (x1, x2, a1, a2) order, each time adding the
    largest increment that keeps both dominator inequalities, until a full
    sweep adds nothing.  Each maximal increment tightens at least one
    inequality for good, so the procedure terminates; at termination every
    input has total mass 1 and both marginals equal the padded minimal
    dominators, i.e. the result is no-signalling.  Inputs already
    no-signalling are returned unchanged.
    """
    if correlation.players != 2:
        raise UnsupportedError(
            "bump_up is defined for exactly two players; pointwise lifting can fail otherwise"
        )
    report = is_snos(correlation)
    if not report.member:
        raise DomainError(f"bump_up needs a sub-no-signalling input: {report.violation}")
    # witnesses are ordered by subset bitmask: empty, {0}, {1}
    q_first = report.witnesses[1]
    q_second = report.witnesses[2]

    n_x1, n_x2 = correlation.input_alphabets
    n_a1, n_a2 = correlation.output_alphabets
    n_a = correlation.n_outputs
    dens = list(correlation.densities)

    # running marginals P(a1|x), P(a2|x) per full input
    marg1 = [[_ZERO] * n_a1 for _ in range(correlation.n_inputs)]
    marg2 = [[_ZERO] * n_a2 for _ in range(correlation.n_inputs)]
    for x in range(correlation.n_inputs):
        for a1 in range(n_a1):
            for a2 in range(n_a2):
                p = dens[x * n_a + a1 * n_a2 + a2]
                marg1[x][a1] += p
                marg2[x][a2] += p

    changed_any = False
    while True:
        changed = False
        for x1 in range(n_x1):
            for x2 in range(n_x2):
                x = x1 * n_x2 + x2
                for a1 in range(n_a1):
                    for a2 in range(n_a2):
                        slack1 = q_first.value(x1, a1) - marg1[x][a1]
                        if slack1 <= 0:
                            break
                        slack2 = q_second.value(x2, a2) - marg2[x][a2]
                        if slack2 <= 0:
                            continue
                        step = slack1 if slack1 < slack2 else slack2
                        dens[x * n_a + a1 * n_a2 + a2] += step
                        marg1[x][a1] += step
                        marg2[x][a2] += step
                        changed = True
        if not changed:
            break
        changed_any = True
    if not changed_any:
        return correlation
    result = Correlation(correlation.input_alphabets, correlation.output_alphabets, tuple(dens))
    post = is_ns(result, NS_MODE_ALL)
    if not post.member:
        raise NsGamesError(f"internal error: bump_up output not no-signalling: {post.violation}")
    return result


# --- maximal coupling -------------------------------------------------------


def _check_distribution(values: Sequence[Fraction], what: str) -> tuple[Fraction, ...]:
    values = tuple(Fraction(v) for v in values)
    if any(v < 0 for v in values):
        raise DomainError(f"{what} has negative entries")
    if sum(values, _ZERO) != 1:
        raise DomainError(f"{what} must be normalized")
    return values


def _coupling(
    first: Sequence[Fraction], second: Sequence[Fraction]
) -> list[tuple[int, int, Fraction]]:
    """The nonzero entries (s, s2, pi(s, s2)) of the maximal coupling pi of two
    distributions of equal total mass, unchecked.

    pi(s, s) = min(first(s), second(s)); the excess of `first` over that
    minimum is spread over the excess of `second` as the product of the two
    normalized positive parts.
    """
    diag = [min(a, b) for a, b in zip(first, second)]
    entries = [(s, s, d) for s, d in enumerate(diag) if d]
    excess = [(s, a - d) for s, (a, d) in enumerate(zip(first, diag)) if a > d]
    deficit = [(s2, b - d) for s2, (b, d) in enumerate(zip(second, diag)) if b > d]
    moved = sum((e for _, e in excess), _ZERO)
    for s, e in excess:
        scale = e / moved
        entries.extend((s, s2, scale * r) for s2, r in deficit)
    return entries


def maximal_coupling(
    first: Sequence[Fraction], second: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], ...]:
    """The canonical maximal coupling of two distributions on a common set.

    Returns the joint pi with row marginal `first` and column marginal
    `second`, pi(s, s) = min(first(s), second(s)) on the diagonal, and the
    excess spread as the product of the normalized positive parts.  Its
    off-diagonal mass is exactly the trace distance of the two marginals (the
    minimum probability that coupled samples differ).
    """
    first = _check_distribution(first, "first marginal")
    second = _check_distribution(second, "second marginal")
    if len(first) != len(second):
        raise ShapeError("maximal_coupling needs marginals on a common set")
    rows = [[_ZERO] * len(first) for _ in first]
    for s, s2, weight in _coupling(first, second):
        rows[s][s2] = weight
    return tuple(tuple(row) for row in rows)


def _replace_digit_marginal(
    dist: dict[int, Fraction], target: Sequence[Fraction], stride: int
) -> dict[int, Fraction]:
    """Replace the marginal of one mixed-radix digit of `dist` by `target`.

    `dist` maps joint indices to their nonzero masses; the digit is the one of
    weight `stride`, with ``len(target)`` values.  Mass at an index whose digit
    is s2 moves to ``idx + (s - s2) * stride`` in proportion pi(s, s2) /
    current(s2), pi the maximal coupling of (target, current): the digit's new
    marginal is `target`, the joint law of all other digits is unchanged, and
    at most ||target - current||_1 of mass moves.  `dist` itself is returned
    when its marginal already equals `target`.  Nothing is checked.
    """
    n = len(target)
    current = [_ZERO] * n
    for idx, mass in dist.items():
        current[idx // stride % n] += mass
    if current == list(target):
        return dist
    moves: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for s, s2, weight in _coupling(target, current):
        moves[s2].append(((s - s2) * stride, weight / current[s2]))
    out: dict[int, Fraction] = {}
    for idx, mass in dist.items():
        for shift, factor in moves[idx // stride % n]:
            out[idx + shift] = out.get(idx + shift, _ZERO) + factor * mass
    return out


def coupling_adjust(
    joint: Sequence[Fraction], target: Sequence[Fraction], n_first: int, n_second: int
) -> tuple[Fraction, ...]:
    """Replace the first marginal of `joint` by `target` via maximal coupling.

    `joint` is a distribution over S x T (s major), `target` one over S.  The
    result is R(s, t) = sum_s' pi(s, s') joint(t|s') with pi the maximal
    coupling of (target, joint_S); with exact arithmetic it satisfies
    R_S = target, R_T = joint_T, and ||R - joint||_1 <= ||target - joint_S||_1.
    Rows with zero current marginal are skipped (their conditionals are never
    needed).
    """
    if len(joint) != n_first * n_second:
        raise ShapeError("joint table size does not match the declared alphabets")
    if len(target) != n_first:
        raise ShapeError("target length does not match the first alphabet")
    joint = _check_distribution(joint, "joint")
    target = _check_distribution(target, "target")
    out = _replace_digit_marginal({idx: v for idx, v in enumerate(joint) if v}, target, n_second)
    return tuple(out.get(idx, _ZERO) for idx in range(len(joint)))


# --- multi-marginal reconstruction ------------------------------------------


def _conditional_table(
    values: Sequence[Fraction], n_in: int, n_out: int, what: str
) -> tuple[Fraction, ...]:
    """`values` as an exact conditional table Q(b|z) (z major), checked."""
    table = tuple(Fraction(v) for v in values)
    if len(table) != n_in * n_out:
        raise ShapeError(f"{what} has the wrong size")
    for z in range(n_in):
        row = table[z * n_out : (z + 1) * n_out]
        if any(v < 0 for v in row) or sum(row, _ZERO) != 1:
            raise DomainError(f"{what} is not a conditional distribution")
    return table


def _certificate_distance(
    entries: Sequence[Fraction],
    inputs: Sequence[int],
    outputs: Sequence[int],
    members: Sequence[int],
    target: Sequence[Fraction],
    table: Sequence[Fraction],
) -> Fraction:
    """(1/2) || P_{A_I X} - T.Q_I ||_1, exactly.

    `entries` is P over X x A (x major, mixed radix over `inputs` and
    `outputs`); Q_I(a_I|x_I) is `table`, over the digits `members` of both.
    """
    got = _subset_sums(entries, outputs, members)
    x_proj = mr.project(inputs, members)
    n_a_i = mr.table_size([outputs[i] for i in members])
    total = _ZERO
    for x, t in enumerate(target):
        row, got_row = x_proj[x] * n_a_i, x * n_a_i
        for a_i in range(n_a_i):
            total += abs(got[got_row + a_i] - t * table[row + a_i])
    return total / 2


@dataclass(frozen=True)
class ReconstructionProblem:
    """Inputs of the block-marginal reconstruction.

    `target` is an exact distribution over the joint block inputs Z (mixed
    radix over `block_inputs`); `joint` a distribution over Z x B (z major, b
    minor, B mixed radix over `block_outputs`); `marginals[j]` a conditional
    table Q_j(b_j | z_j) (z_j major).  Construction verifies exactly that

        (1/2) || joint_Z - target ||_1          <= eps0
        (1/2) || joint_{B_j Z} - target.Q_j ||_1 <= eps[j]   for every block.
    """

    block_inputs: tuple[int, ...]
    block_outputs: tuple[int, ...]
    target: tuple[Fraction, ...]
    joint: tuple[Fraction, ...]
    marginals: tuple[tuple[Fraction, ...], ...]
    eps0: Fraction
    eps: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        blocks = len(self.block_inputs)
        if blocks == 0 or len(self.block_outputs) != blocks:
            raise ShapeError("block alphabet lists must be non-empty and equally long")
        object.__setattr__(self, "block_inputs", tuple(int(s) for s in self.block_inputs))
        object.__setattr__(self, "block_outputs", tuple(int(s) for s in self.block_outputs))
        object.__setattr__(self, "target", _check_distribution(self.target, "target"))
        object.__setattr__(self, "joint", _check_distribution(self.joint, "joint"))
        object.__setattr__(self, "eps0", Fraction(self.eps0))
        object.__setattr__(self, "eps", tuple(Fraction(e) for e in self.eps))
        if len(self.eps) != blocks:
            raise ShapeError("one tolerance per block is required")
        if len(self.marginals) != blocks:
            raise ShapeError("one marginal table per block is required")
        n_z, n_b = self.n_z, self.n_b
        if len(self.target) != n_z:
            raise ShapeError("target length does not match the block inputs")
        if len(self.joint) != n_z * n_b:
            raise ShapeError("joint size does not match the block alphabets")
        marginals = tuple(
            _conditional_table(table, z_j, b_j, f"block {j} marginal table")
            for j, (table, z_j, b_j) in enumerate(
                zip(self.marginals, self.block_inputs, self.block_outputs)
            )
        )
        object.__setattr__(self, "marginals", marginals)

        z_weight = [sum(self.joint[z * n_b : (z + 1) * n_b], _ZERO) for z in range(n_z)]
        drift = trace_distance(z_weight, self.target)
        if drift > self.eps0:
            raise DomainError(
                f"input-marginal tolerance violated: distance {drift} > eps0 {self.eps0}"
            )
        for j in range(blocks):
            dist = _certificate_distance(
                self.joint, self.block_inputs, self.block_outputs, (j,), self.target, marginals[j]
            )
            if dist > self.eps[j]:
                raise DomainError(
                    f"block {j} marginal tolerance violated: distance {dist} > {self.eps[j]}"
                )

    @property
    def blocks(self) -> int:
        return len(self.block_inputs)

    @property
    def n_z(self) -> int:
        return mr.table_size(self.block_inputs)

    @property
    def n_b(self) -> int:
        return mr.table_size(self.block_outputs)


def _reconstruct_input(
    mass: dict[int, Fraction],
    z_parts: Sequence[int],
    tables: Sequence[tuple[Fraction, ...]],
    block_outputs: tuple[int, ...],
) -> dict[int, Fraction]:
    """One input's reconstructed conditional over B, as a map of its nonzeros.

    `mass` holds the input's nonzero joint masses over B; their conditional
    (uniform over B where the input has no mass) gets the marginal of each
    block j replaced, in ascending block order, by the row ``z_parts[j]`` of
    the conditional table ``tables[j]``.
    """
    n_b = mr.table_size(block_outputs)
    weight = sum(mass.values(), _ZERO)
    if weight > 0:
        dist = {idx: v / weight for idx, v in mass.items()}
    else:
        dist = dict.fromkeys(range(n_b), Fraction(1, n_b))
    stride = n_b
    for table, z_j, b_j in zip(tables, z_parts, block_outputs):
        stride //= b_j
        dist = _replace_digit_marginal(dist, table[z_j * b_j : (z_j + 1) * b_j], stride)
    return dist


def reconstruct_multi_marginal(problem: ReconstructionProblem) -> tuple[Fraction, ...]:
    """A conditional P'(b|z) whose block marginals are exactly the given local
    ones: P'(b_j|z) = Q_j(b_j|z_j) for every block and input.

    Works input by input: starting from the conditional of `joint` at z (the
    uniform distribution where z carries no mass), the marginal of each block
    is replaced in ascending block order by maximal coupling, which preserves
    the joint distribution of all other blocks.  The exact L1 guarantee
    (1/2)||target.P' - joint||_1 <= eps0 + sum_j 2 eps[j] follows and is what
    the tests assert.
    """
    n_b = problem.n_b
    z_projs = [mr.project(problem.block_inputs, (j,)) for j in range(problem.blocks)]
    out: list[Fraction] = []
    for z in range(problem.n_z):
        row = problem.joint[z * n_b : (z + 1) * n_b]
        mass = {b: v for b, v in enumerate(row) if v}
        dist = _reconstruct_input(
            mass, [proj[z] for proj in z_projs], problem.marginals, problem.block_outputs
        )
        out.extend(dist.get(b, _ZERO) for b in range(n_b))
    return tuple(out)


# --- SNOS reconstruction via diagonal embedding -----------------------------


def reconstruct_snos(
    target: Sequence[Fraction],
    joint: JointDistribution,
    marginals: Mapping[tuple[int, ...], Sequence[Fraction]],
    epsilons: Mapping[tuple[int, ...], Fraction],
) -> Correlation:
    """Repair a joint distribution into an exactly sub-no-signalling strategy.

    `marginals[I]` is a conditional table Q_I(a_I|x_I) (x_I major) for every
    nonempty strict subset I (given as a sorted tuple of player indices);
    `epsilons` additionally contains the empty tuple.  Construction checks
    exactly that each table is a conditional distribution, that
    (1/2)||joint_X - target||_1 <= eps[()] and that each
    (1/2)||joint_{A_I X} - target.Q_I||_1 <= eps[I]; a malformed table or a
    violated certificate is reported by subset.

    One reconstruction block per subset (ascending bitmask) is run on the
    lifted alphabets, then the result is restricted along the diagonal
    embedding.  The output satisfies, exactly:

    * membership in SNOS, with the given Q_I as dominators;
    * (1/2) || target.P' - joint ||_1  <=  eps[()] + sum_I 2 eps[I];
    * for two players, membership in NS.
    """
    players = joint.players
    if players < 2:
        raise DomainError("reconstruction needs at least two players")
    target = _check_distribution(target, "target")
    if len(target) != joint.n_inputs:
        raise ShapeError("target length does not match the joint's input table")
    if not joint.is_normalized():
        raise DomainError("joint must be a normalized distribution")

    subsets = [s.members for s in strict_subsets(players, include_empty=False)]
    missing = [members for members in [(), *subsets] if members not in epsilons]
    if missing:
        raise DomainError(f"missing tolerances for subsets {missing}")
    missing = [members for members in subsets if members not in marginals]
    if missing:
        raise DomainError(f"missing marginal tables for subsets {missing}")

    # table and certificate checks, named by subset
    inputs, outputs = joint.input_alphabets, joint.output_alphabets
    drift = trace_distance(joint.input_marginal(), target)
    eps0 = Fraction(epsilons[()])
    if drift > eps0:
        raise DomainError(
            f"subset () certificate violated: input-marginal distance {drift} > {eps0}"
        )
    # lifted output space: one block per subset, of that subset's outputs
    block_outputs = tuple(mr.table_size([outputs[i] for i in members]) for members in subsets)
    tables: list[tuple[Fraction, ...]] = []
    for members, b_i in zip(subsets, block_outputs):
        n_x_i = mr.table_size([inputs[i] for i in members])
        table = _conditional_table(
            marginals[members], n_x_i, b_i, f"marginal table for subset {members}"
        )
        eps_i = Fraction(epsilons[members])
        dist = _certificate_distance(joint.entries, inputs, outputs, members, target, table)
        if dist > eps_i:
            raise DomainError(
                f"subset {members} certificate violated: distance {dist} > {eps_i}"
            )
        tables.append(table)

    x_projs = [mr.project(inputs, members) for members in subsets]
    # diagonal embedding: block j holds a_I for the j-th subset I
    delta = mr.project(outputs, [i for members in subsets for i in members])
    n_a = joint.n_outputs
    densities: list[Fraction] = []
    for x in range(joint.n_inputs):
        row = joint.entries[x * n_a : (x + 1) * n_a]
        mass = {delta[a]: q for a, q in enumerate(row) if q}
        dist = _reconstruct_input(mass, [proj[x] for proj in x_projs], tables, block_outputs)
        densities.extend(dist.get(i, _ZERO) for i in delta)

    result = Correlation(inputs, outputs, tuple(densities))
    post = is_snos(result)
    if not post.member:
        raise NsGamesError(
            f"internal error: reconstructed strategy not SNOS: {post.violation}"
        )
    if players == 2:
        ns_post = is_ns(result, NS_MODE_ALL)
        if not ns_post.member:
            raise NsGamesError(
                f"internal error: two-player reconstruction not NS: {ns_post.violation}"
            )
    return result


# --- nearest no-signalling correlation ---------------------------------------


def nearest_ns(
    target: Sequence[Fraction], conditional: Correlation
) -> tuple[Correlation, Fraction]:
    """The NS correlation minimizing (1/2)||T.P'' - T.P'||_1, with the distance.

    `conditional` must be normalized per input.  The distance is 0 exactly
    when the input is already no-signalling on the support of `target`; the
    returned witness is no-signalling on every input (zero-weight ones
    included).
    """
    target = _check_distribution(target, "target")
    if len(target) != conditional.n_inputs:
        raise ShapeError("target length does not match the correlation's inputs")
    for x in range(conditional.n_inputs):
        if conditional.mass(x) != 1:
            raise DomainError("the conditional must be normalized per input")

    inputs, outputs = conditional.input_alphabets, conditional.output_alphabets
    n_x, n_a = conditional.n_inputs, conditional.n_outputs
    n_vars, forms = _ns_forms(inputs, outputs, [], range(n_x * n_a))
    rows = _QuotientRows()
    _ns_nonnegativity(rows, forms)
    # both tables are normalized per input, so the distance is the sum of the
    # positive parts u(x, a) >= T(x) (P'(a|x) - P''(a|x)); a row is needed
    # only where T(x) P'(a|x) > 0, written as -T L(v) - u <= T (constant - P')
    n_u = 0
    for idx, (entries, constant) in enumerate(forms):
        t = target[idx // n_a]
        mass = t * conditional.densities[idx]
        if mass:
            row = {var: -t * c for var, c in entries.items()}
            row[n_vars + n_u] = -_ONE
            rows.add(row, "<=", t * constant - mass)
            n_u += 1
    if n_vars:
        problem = LpProblem(
            (_ZERO,) * n_vars + (_ONE,) * n_u, rows.to_constraints(n_vars + n_u), maximize=False
        )
        solution = _solved(problem, "projection")
        point, distance = solution.witness, solution.value
    else:  # every player has one output: the deterministic point is the polytope
        point, distance = (), _ZERO
    witness = Correlation(inputs, outputs, _ns_point(point, forms))
    post = is_ns(witness, NS_MODE_ALL)
    if not post.member:
        raise NsGamesError(f"internal error: projection witness not NS: {post.violation}")
    return witness, distance
