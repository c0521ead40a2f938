"""Constructive repair procedures: exact maps from approximately-(sub-)
no-signalling objects to exact members of the target sets.

* `bump_up` — two players only: pointwise-increase a sub-no-signalling
  correlation until every dominator inequality is tight, producing a
  no-signalling correlation that dominates the input.  (For three or more
  players no such pointwise lift exists in general, so the operation refuses
  other player counts.)
* `coupling_adjust` — the maximal-coupling marginal replacement: given a
  joint on S x T and a target marginal on S, produce a joint with first
  marginal exactly the target, second marginal unchanged, moving at most
  ||target - current||_1 of mass.
* `reconstruct_multi_marginal` — per-input recursive application of
  `coupling_adjust`, one block at a time, yielding a conditional whose block
  marginals are exactly the prescribed local ones, at L1 cost
  eps_0 + sum_j 2 eps_j.
* `reconstruct_snos` — lifts a joint distribution to one block per nonempty
  strict player subset (indexed by ascending subset bitmask), reconstructs,
  and restricts back along the diagonal embedding; the result is exactly
  sub-no-signalling, and for two players exactly no-signalling.
* `nearest_ns` — exact LP projection: the no-signalling correlation
  minimizing (1/2)||T.P'' - T.P'||_1, with the minimum distance; an LP over
  Collins-Gisin coordinates, distance = sum of positive parts.

All arithmetic is exact.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import _mixedradix as mr
from .errors import DomainError, NsGamesError, ShapeError, UnsupportedError
from .exact_lp import LpProblem
from .game_model import Correlation, JointDistribution, SubsetIndex, strict_subsets
from .polytopes import NS_MODE_ALL, is_ns, is_snos
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
                    slack1 = q_first.value(x1, a1) - marg1[x][a1]
                    if slack1 <= 0:
                        continue
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
    n = len(first)
    diag = [min(a, b) for a, b in zip(first, second)]
    rest_first = [a - d for a, d in zip(first, diag)]
    rest_second = [b - d for b, d in zip(second, diag)]
    moved = sum(rest_first, _ZERO)
    rows = []
    for s in range(n):
        row = [_ZERO] * n
        row[s] = diag[s]
        if moved > 0 and rest_first[s] > 0:
            scale = rest_first[s] / moved
            for s2 in range(n):
                if rest_second[s2]:
                    row[s2] += scale * rest_second[s2]
        rows.append(tuple(row))
    return tuple(rows)


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

    current = [sum(joint[s * n_second : (s + 1) * n_second], _ZERO) for s in range(n_first)]
    if list(target) == current:
        return joint
    pi = maximal_coupling(target, current)
    out = [_ZERO] * (n_first * n_second)
    for s2 in range(n_first):
        if current[s2] == 0:
            continue
        base = s2 * n_second
        conditional = [joint[base + t] / current[s2] for t in range(n_second)]
        for s in range(n_first):
            weight = pi[s][s2]
            if weight:
                row = s * n_second
                for t in range(n_second):
                    if conditional[t]:
                        out[row + t] += weight * conditional[t]
    return tuple(out)


# --- multi-marginal reconstruction ------------------------------------------


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
        n_z, n_b = self.n_z, self.n_b
        if len(self.target) != n_z:
            raise ShapeError("target length does not match the block inputs")
        if len(self.joint) != n_z * n_b:
            raise ShapeError("joint size does not match the block alphabets")
        marginals = []
        for j in range(blocks):
            table = tuple(Fraction(v) for v in self.marginals[j])
            z_j, b_j = self.block_inputs[j], self.block_outputs[j]
            if len(table) != z_j * b_j:
                raise ShapeError(f"block {j} marginal table has the wrong size")
            for z in range(z_j):
                row = table[z * b_j : (z + 1) * b_j]
                if any(v < 0 for v in row) or sum(row, _ZERO) != 1:
                    raise DomainError(f"block {j} marginal is not a conditional distribution")
            marginals.append(table)
        object.__setattr__(self, "marginals", tuple(marginals))

        z_weight = [
            sum(self.joint[z * n_b : (z + 1) * n_b], _ZERO) for z in range(n_z)
        ]
        drift = sum((abs(w - t) for w, t in zip(z_weight, self.target)), _ZERO) / 2
        if drift > self.eps0:
            raise DomainError(
                f"input-marginal tolerance violated: distance {drift} > eps0 {self.eps0}"
            )
        for j in range(blocks):
            dist = self._block_distance(j)
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

    def _block_distance(self, j: int) -> Fraction:
        """(1/2) || joint_{B_j Z} - target.Q_j ||_1, exactly."""
        n_z, n_b = self.n_z, self.n_b
        b_j = self.block_outputs[j]
        proj = mr.project(self.block_outputs, (j,))
        z_comp = mr.project(self.block_inputs, (j,))
        total = _ZERO
        for z in range(n_z):
            got = [_ZERO] * b_j
            base = z * n_b
            for b in range(n_b):
                if self.joint[base + b]:
                    got[proj[b]] += self.joint[base + b]
            trow = self.target[z]
            qrow = self.marginals[j][z_comp[z] * b_j : (z_comp[z] + 1) * b_j]
            for v in range(b_j):
                total += abs(got[v] - trow * qrow[v])
        return total / 2


def _adjust_block_marginals(
    conditional: list[Fraction],
    block_targets: list[tuple[Fraction, ...]],
    front_maps: list[tuple[int, ...]],
    block_outputs: tuple[int, ...],
) -> list[Fraction]:
    """Apply `coupling_adjust` once per block to a conditional over B.

    `front_maps[j]` sends a joint index over B to its index with block j's
    component moved to the front, i.e. to the (b_j, rest) split.
    """
    n_b = len(conditional)
    current = conditional
    for j, target in enumerate(block_targets):
        b_j = block_outputs[j]
        front = front_maps[j]
        reshaped = [_ZERO] * n_b
        for idx in range(n_b):
            if current[idx]:
                reshaped[front[idx]] = current[idx]
        adjusted = coupling_adjust(reshaped, target, b_j, n_b // b_j)
        current = [adjusted[f] for f in front]
    return current


def reconstruct_multi_marginal(problem: ReconstructionProblem) -> tuple[Fraction, ...]:
    """A conditional P'(b|z) whose block marginals are exactly the given local
    ones: P'(b_j|z) = Q_j(b_j|z_j) for every block and input.

    Works input by input: starting from the conditional of `joint` at z (the
    uniform distribution where z carries no mass), the marginal of each block
    is replaced in ascending block order by `coupling_adjust`, which preserves
    the joint distribution of all other blocks.  The exact L1 guarantee
    (1/2)||target.P' - joint||_1 <= eps0 + sum_j 2 eps[j] follows and is what
    the tests assert.
    """
    n_z, n_b = problem.n_z, problem.n_b
    blocks = range(problem.blocks)
    front_maps = [  # component j moved to the front
        mr.project(problem.block_outputs, (j, *(p for p in blocks if p != j))) for j in blocks
    ]
    z_comps = [mr.project(problem.block_inputs, (j,)) for j in blocks]
    uniform = Fraction(1, n_b)
    out: list[Fraction] = []
    for z in range(n_z):
        row = problem.joint[z * n_b : (z + 1) * n_b]
        weight = sum(row, _ZERO)
        if weight > 0:
            conditional = [v / weight for v in row]
        else:
            conditional = [uniform] * n_b
        targets = []
        for j in range(problem.blocks):
            b_j = problem.block_outputs[j]
            z_j = z_comps[j][z]
            targets.append(problem.marginals[j][z_j * b_j : (z_j + 1) * b_j])
        out.extend(
            _adjust_block_marginals(conditional, targets, front_maps, problem.block_outputs)
        )
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
    exactly that (1/2)||joint_X - target||_1 <= eps[()] and that each
    (1/2)||joint_{A_I X} - target.Q_I||_1 <= eps[I]; a violated certificate is
    reported by subset.

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

    subsets = strict_subsets(players, include_empty=False)
    empty_key = ()
    if empty_key not in epsilons:
        raise DomainError("a tolerance for the empty subset is required")
    missing = [s.members for s in subsets if s.members not in marginals]
    if missing:
        raise DomainError(f"missing marginal tables for subsets {missing}")

    # certificate checks, named by subset
    x_weight = joint.input_marginal()
    drift = sum((abs(w - t) for w, t in zip(x_weight, target)), _ZERO) / 2
    eps0 = Fraction(epsilons[empty_key])
    if drift > eps0:
        raise DomainError(
            f"subset () certificate violated: input-marginal distance {drift} > {eps0}"
        )
    block_tables: list[tuple[Fraction, ...]] = []
    block_eps: list[Fraction] = []
    for subset in subsets:
        table = tuple(Fraction(v) for v in marginals[subset.members])
        eps_i = Fraction(epsilons[subset.members])
        dist = _subset_certificate_distance(joint, target, subset, table)
        if dist > eps_i:
            raise DomainError(
                f"subset {subset.members} certificate violated: distance {dist} > {eps_i}"
            )
        block_tables.append(table)
        block_eps.append(eps_i)

    # lifted output space: one block per subset
    block_outputs = tuple(
        mr.table_size(tuple(joint.output_alphabets[i] for i in s.members)) for s in subsets
    )
    x_projs = [mr.project(joint.input_alphabets, s.members) for s in subsets]
    n_a = joint.n_outputs
    # diagonal embedding: block j holds a_I for the j-th subset I
    delta = mr.project(joint.output_alphabets, [i for s in subsets for i in s.members])
    blocks = range(len(subsets))
    front_maps = [  # component j moved to the front
        mr.project(block_outputs, (j, *(p for p in blocks if p != j))) for j in blocks
    ]
    n_b = mr.table_size(block_outputs)
    uniform = Fraction(1, n_b)

    densities: list[Fraction] = []
    for x in range(joint.n_inputs):
        weight = x_weight[x]
        lifted = [_ZERO] * n_b
        if weight > 0:
            for a in range(n_a):
                q = joint.value(x, a)
                if q:
                    lifted[delta[a]] += q / weight
        else:
            lifted = [uniform] * n_b
        targets = []
        for j, subset in enumerate(subsets):
            b_j = block_outputs[j]
            z_j = x_projs[j][x]
            targets.append(block_tables[j][z_j * b_j : (z_j + 1) * b_j])
        adjusted = _adjust_block_marginals(lifted, targets, front_maps, block_outputs)
        densities.extend(adjusted[delta[a]] for a in range(n_a))

    result = Correlation(joint.input_alphabets, joint.output_alphabets, tuple(densities))
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


def _subset_certificate_distance(
    joint: JointDistribution,
    target: tuple[Fraction, ...],
    subset: SubsetIndex,
    table: tuple[Fraction, ...],
) -> Fraction:
    """(1/2) || joint_{A_I X} - target.Q_I ||_1, exactly."""
    members = subset.members
    n_a_i = mr.table_size(tuple(joint.output_alphabets[i] for i in members))
    if len(table) != n_a_i * mr.table_size(tuple(joint.input_alphabets[i] for i in members)):
        raise ShapeError(f"marginal table for subset {members} has the wrong size")
    a_proj = mr.project(joint.output_alphabets, members)
    x_proj = mr.project(joint.input_alphabets, members)
    n_a = joint.n_outputs
    total = _ZERO
    for x in range(joint.n_inputs):
        got = [_ZERO] * n_a_i
        for a in range(n_a):
            q = joint.value(x, a)
            if q:
                got[a_proj[a]] += q
        t = target[x]
        row = x_proj[x] * n_a_i
        for a_i in range(n_a_i):
            total += abs(got[a_i] - t * table[row + a_i])
    return total / 2


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
        solution = _solved(problem, "dantzig-lex", "projection")
        point, distance = solution.witness, solution.value
    else:  # every player has one output: the deterministic point is the polytope
        point, distance = (), _ZERO
    witness = Correlation(inputs, outputs, _ns_point(point, forms))
    post = is_ns(witness, NS_MODE_ALL)
    if not post.member:
        raise NsGamesError(f"internal error: projection witness not NS: {post.violation}")
    return witness, distance
