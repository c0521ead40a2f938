import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    Correlation,
    DomainError,
    JointDistribution,
    LpProblem,
    SubsetIndex,
    fidelity,
    is_ns,
    is_snos,
    lp_solve,
    marginal,
    marginal_consistency_distance,
    minimal_dominating_marginal,
    p_epsilon_membership,
    strict_subsets,
    tilde_fidelity,
    trace_distance,
)
from nsgames import _mixedradix as mr
from nsgames.polytopes import NS_MODE_ALL, NS_MODE_SINGLES, _joint_subset_marginal

from conftest import (
    rand_dist,
    random_correlation,
    random_joint,
    random_ns_correlation,
    random_snos_correlation,
    subset_certificate_distance,
)

F = Fraction


def _input_swap_box() -> Correlation:
    """P(ab|xy) = [a == y][b == x]: each player answers the other's input."""
    dens = []
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    dens.append(F(1) if (a == y and b == x) else F(0))
    return Correlation((2, 2), (2, 2), tuple(dens))


# --- minimal dominating marginal ----------------------------------------------


def test_dominator_of_local_marginals_is_the_marginal(pr):
    # the box's single-player marginals are uniform for every opposite input
    bound = minimal_dominating_marginal(pr, SubsetIndex(2, (0,)))
    assert bound.table == (F(1, 2), F(1, 2), F(1, 2), F(1, 2))


def test_dominator_of_input_swap_box_saturates():
    bound = minimal_dominating_marginal(_input_swap_box(), SubsetIndex(2, (0,)))
    assert set(bound.table) == {F(1)}


def test_dominator_rows_of_perfect_strategy_are_tight(a3_strategy):
    bound = minimal_dominating_marginal(a3_strategy, SubsetIndex(3, (0,)))
    for x_i in range(2):
        assert bound.row_sum(x_i) == 1


def test_dominator_monotone_in_the_correlation():
    rng = random.Random(31)
    for _ in range(20):
        small = random_correlation(rng, (2, 2), (2, 2), scale=F(1, 2))
        bigger = Correlation(
            small.input_alphabets,
            small.output_alphabets,
            tuple(v + F(rng.randrange(0, 8), 32) for v in small.densities),
        )
        for subset in strict_subsets(2):
            low = minimal_dominating_marginal(small, subset)
            high = minimal_dominating_marginal(bigger, subset)
            assert all(a <= b for a, b in zip(low.table, high.table))


# --- SNOS membership -------------------------------------------------------------


def test_zero_density_is_snos():
    zero = Correlation((2, 2, 2), (2, 2, 2), (F(0),) * 64)
    report = is_snos(zero)
    assert report.member
    # witnesses are padded to exact probability distributions
    for witness in report.witnesses:
        for x_i in range(witness.n_inputs):
            assert witness.row_sum(x_i) == 1


def test_perfect_strategy_is_snos_not_ns(a3_strategy):
    assert is_snos(a3_strategy).member
    report = is_ns(a3_strategy)
    assert not report.member
    assert report.violation.kind == "normalization"
    assert report.violation.location == (1, 1, 1)


def test_input_swap_box_not_snos():
    report = is_snos(_input_swap_box())
    assert not report.member
    assert report.violation.subset.members == (0,)
    assert report.violation.kind == "excess-mass"
    assert report.violation.excess == 1


def test_negative_entry_reported_not_raised():
    corr = Correlation.__new__(Correlation)
    object.__setattr__(corr, "input_alphabets", (2, 2))
    object.__setattr__(corr, "output_alphabets", (2, 2))
    dens = [F(0)] * 16
    dens[5] = F(-1, 8)
    object.__setattr__(corr, "densities", tuple(dens))
    for report in (is_snos(corr), is_ns(corr)):
        assert not report.member
        assert report.violation.kind == "negative-entry"
        assert report.violation.location == (1, 1)


def test_snos_witnesses_dominate(a3_strategy):
    report = is_snos(a3_strategy)
    for witness in report.witnesses:
        subset = witness.subset
        marg = marginal(a3_strategy, subset)
        proj = mr.project(a3_strategy.input_alphabets, subset.members)
        for x in range(a3_strategy.n_inputs):
            for a_i in range(witness.n_outputs):
                assert marg.value(x, a_i) <= witness.value(proj[x], a_i)


# --- NS membership -----------------------------------------------------------------


def test_uniform_is_ns():
    uniform = Correlation((2, 2, 2), (2, 2, 2), (F(1, 8),) * 64)
    assert is_ns(uniform).member
    assert is_ns(uniform, NS_MODE_ALL).member


def test_pr_box_is_ns(pr):
    assert is_ns(pr, NS_MODE_ALL).member


def test_input_swap_box_signalling_detected():
    box = _input_swap_box()
    report = is_ns(box)
    assert not report.member
    assert report.violation.kind == "signalling"


def test_ns_implies_snos_on_random_corpus():
    rng = random.Random(37)
    for players in (2, 3):
        for _ in range(20):
            corr = random_ns_correlation(rng, (2,) * players, (2,) * players)
            assert is_ns(corr, NS_MODE_ALL).member
            assert is_snos(corr).member


def test_ns_modes_agree_on_random_corpus():
    rng = random.Random(41)
    for players in (2, 3):
        for _ in range(25):
            if rng.random() < 0.5:
                corr = random_ns_correlation(rng, (2,) * players, (2,) * players)
            else:
                corr = random_correlation(rng, (2,) * players, (2,) * players, F(1, 4))
            assert is_ns(corr, NS_MODE_SINGLES).member == is_ns(corr, NS_MODE_ALL).member


def test_unknown_mode_rejected(pr):
    with pytest.raises(DomainError):
        is_ns(pr, "everything")


# --- SNOS closed form vs LP feasibility ------------------------------------------


def snos_membership_by_lp(corr: Correlation) -> bool:
    """Independent oracle: per-subset dominator feasibility as an explicit LP."""
    if any(p < 0 for p in corr.densities):
        return False
    for subset in strict_subsets(corr.players):
        if subset.is_empty:
            if any(corr.mass(x) > 1 for x in range(corr.n_inputs)):
                return False
            continue
        marg = marginal(corr, subset)
        proj = mr.project(corr.input_alphabets, subset.members)
        n_x_i = max(proj) + 1
        n_a_i = marg.n_subset_outputs
        n_vars = n_x_i * n_a_i  # Q(a_I | x_I)
        constraints = []
        for x_i in range(n_x_i):
            row = [F(0)] * n_vars
            for a_i in range(n_a_i):
                row[x_i * n_a_i + a_i] = F(1)
            constraints.append((tuple(row), "=", F(1)))
        for x in range(corr.n_inputs):
            for a_i in range(n_a_i):
                row = [F(0)] * n_vars
                row[proj[x] * n_a_i + a_i] = F(-1)
                constraints.append((tuple(row), "<=", -marg.value(x, a_i)))
        problem = LpProblem((F(0),) * n_vars, tuple(constraints), maximize=False)
        if lp_solve(problem).status != "optimal":
            return False
    return True


def test_snos_closed_form_matches_lp_oracle():
    rng = random.Random(43)
    for players in (2, 3):
        for _ in range(15):
            roll = rng.random()
            if roll < 0.4:
                corr = random_snos_correlation(rng, (2,) * players, (2,) * players)
            elif roll < 0.7:
                corr = random_correlation(rng, (2,) * players, (2,) * players, F(1, 2))
            else:
                corr = random_correlation(rng, (2,) * players, (2,) * players)
            assert is_snos(corr).member == snos_membership_by_lp(corr)


# --- marginal consistency distance ------------------------------------------------


def _lift_conditional(target, r_table, inputs, outputs, subset) -> JointDistribution:
    """The joint target(x) R(a_I|x_I) spread uniformly over a_{I^c}."""
    from nsgames._mixedradix import decode, encode, table_size

    members = subset.members
    rest = [i for i in range(len(inputs)) if i not in members]
    n_a = table_size(outputs)
    in_sizes = tuple(inputs[i] for i in members)
    out_sizes = tuple(outputs[i] for i in members)
    n_a_i = table_size(out_sizes)
    rest_count = table_size(tuple(outputs[i] for i in rest)) or 1
    entries = []
    for x in range(table_size(inputs)):
        x_tup = decode(x, tuple(inputs))
        x_i = encode(tuple(x_tup[i] for i in members), in_sizes)
        for a in range(n_a):
            a_tup = decode(a, tuple(outputs))
            a_i = encode(tuple(a_tup[i] for i in members), out_sizes)
            entries.append(target[x] * r_table[x_i * n_a_i + a_i] / rest_count)
    return JointDistribution(tuple(inputs), tuple(outputs), tuple(entries))


def test_consistency_distance_zero_for_lifted_conditionals():
    rng = random.Random(47)
    inputs = outputs = (2, 2)
    subset = SubsetIndex(2, (0,))
    target = rand_dist(rng, 4)
    r_table = rand_dist(rng, 2) + rand_dist(rng, 2)  # R(.|x1=0), R(.|x1=1)
    joint = _lift_conditional(target, r_table, inputs, outputs, subset)
    distance, witness = marginal_consistency_distance(joint, target, subset)
    assert distance == 0
    assert witness == tuple(r_table)


def test_consistency_distance_dominates_input_marginal_gap():
    rng = random.Random(53)
    for _ in range(10):
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        gap = trace_distance(joint.input_marginal(), target)
        for subset in strict_subsets(2, include_empty=False):
            distance, _ = marginal_consistency_distance(joint, target, subset)
            assert distance >= gap


def _distance_by_breakpoints(joint: JointDistribution, target, subset) -> Fraction:
    """Oracle for |A_I| = 2: the per-x_I objective is piecewise linear in
    r = R(0|x_I), so the minimum sits at r in {0, 1} or a kink; enumerate."""
    from nsgames._mixedradix import table_size
    from nsgames.polytopes import _joint_subset_marginal

    members = subset.members
    proj = mr.project(joint.input_alphabets, members)
    n_a_i = 2
    q_marg = _joint_subset_marginal(joint, subset)
    blocks: dict[int, list[int]] = {}
    for x in range(joint.n_inputs):
        blocks.setdefault(proj[x], []).append(x)
    total = F(0)
    for x_i in range(table_size(tuple(joint.input_alphabets[i] for i in members))):
        xs = blocks[x_i]
        candidates = {F(0), F(1)}
        for x in xs:
            t = target[x]
            if t > 0:
                for kink in (q_marg[x * n_a_i] / t, 1 - q_marg[x * n_a_i + 1] / t):
                    if 0 <= kink <= 1:
                        candidates.add(kink)

        def cost(r: Fraction) -> Fraction:
            acc = F(0)
            for x in xs:
                t = target[x]
                acc += abs(t * r - q_marg[x * n_a_i])
                acc += abs(t * (1 - r) - q_marg[x * n_a_i + 1])
            return acc / 2

        total += min(cost(r) for r in sorted(candidates))
    return total


def test_consistency_distance_matches_breakpoint_oracle():
    rng = random.Random(59)
    for _ in range(15):
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        for subset in strict_subsets(2, include_empty=False):
            lp_value, _ = marginal_consistency_distance(joint, target, subset)
            assert lp_value == _distance_by_breakpoints(joint, target, subset)


def _distance_by_lp(joint: JointDistribution, target, subset) -> Fraction:
    """Oracle: the consistency distance as one LP per x_I block, over R(a_I)
    with sum R = 1 and u(a_I, x) >= |T(x) R(a_I) - Q(a_I, x)|."""
    members = subset.members
    n_x_i = mr.table_size([joint.input_alphabets[i] for i in members])
    n_a_i = mr.table_size([joint.output_alphabets[i] for i in members])
    q_marg = _joint_subset_marginal(joint, subset)
    x_proj = mr.project(joint.input_alphabets, members)
    total = F(0)
    for x_i in range(n_x_i):
        xs = [x for x in range(joint.n_inputs) if x_proj[x] == x_i]
        n_u = n_a_i * len(xs)
        n_vars = n_a_i + n_u
        constraints = [(tuple(F(int(j < n_a_i)) for j in range(n_vars)), "=", F(1))]
        u_pos = n_a_i
        for a_i in range(n_a_i):
            for x in xs:
                q, t = q_marg[x * n_a_i + a_i], target[x]
                for sign in (1, -1):  # sign (T R - Q) - u <= 0
                    row = [F(0)] * n_vars
                    row[a_i], row[u_pos] = sign * t, F(-1)
                    constraints.append((tuple(row), "<=", sign * q))
                u_pos += 1
        objective = (F(0),) * n_a_i + (F(1, 2),) * n_u
        solution = lp_solve(LpProblem(objective, tuple(constraints), maximize=False))
        assert solution.status == "optimal"
        total += solution.value
    return total


@st.composite
def _consistency_instances(draw):
    """A joint, a target and a nonempty strict subset: 2-3 players, ragged
    alphabets of 1-3 symbols, tables with many zeros (so ties are common) and
    zero-weight inputs in half the draws."""
    players = draw(st.integers(2, 3))
    inputs = tuple(draw(st.integers(1, 3)) for _ in range(players))
    outputs = tuple(draw(st.integers(1, 3)) for _ in range(players))
    rng = random.Random(draw(st.integers(0, 2**32)))
    joint = random_joint(rng, inputs, outputs, denom=rng.choice([2, 4, 64]))
    n_x = mr.table_size(inputs)
    if draw(st.booleans()):
        weights = [rng.randrange(0, 4) if rng.random() < 0.5 else 0 for _ in range(n_x)]
        weights[rng.randrange(n_x)] += 1
        target = tuple(F(w, sum(weights)) for w in weights)
    else:
        target = rand_dist(rng, n_x)
    subset = draw(st.sampled_from(strict_subsets(players, include_empty=False)))
    return joint, target, subset


@settings(max_examples=40, deadline=None)
@given(_consistency_instances())
def test_consistency_distance_matches_the_lp(instance):
    joint, target, subset = instance
    distance, r_table = marginal_consistency_distance(joint, target, subset)
    assert distance == _distance_by_lp(joint, target, subset)
    # R is a conditional table R(a_I|x_I) that attains the distance exactly
    n_a_i = mr.table_size([joint.output_alphabets[i] for i in subset.members])
    rows = [r_table[k : k + n_a_i] for k in range(0, len(r_table), n_a_i)]
    assert all(min(row) >= 0 and sum(row) == 1 for row in rows)
    assert subset_certificate_distance(joint, target, subset, r_table) == distance


def test_consistency_rejects_unnormalized():
    rng = random.Random(61)
    joint = random_joint(rng, (2, 2), (2, 2))
    bad_target = (F(1, 2), F(1, 2), F(1, 2), F(0))
    with pytest.raises(DomainError):
        marginal_consistency_distance(joint, bad_target, SubsetIndex(2, (0,)))


# --- P_epsilon membership ------------------------------------------------------------


def test_p_epsilon_trivial_cases():
    rng = random.Random(67)
    inputs = outputs = (2, 2)
    target = rand_dist(rng, 4)
    subset = SubsetIndex(2, (0,))
    r_table = rand_dist(rng, 2) + rand_dist(rng, 2)
    lifted = _lift_conditional(target, r_table, inputs, outputs, subset)
    # a lifted NS-style product is never farther than its own structure allows
    assert p_epsilon_membership(lifted, target, F(1))
    random_q = random_joint(rng, inputs, outputs)
    assert p_epsilon_membership(random_q, target, F(1))  # total variation <= 1


def test_p_epsilon_boundary_matches_max_distance():
    rng = random.Random(71)
    for _ in range(8):
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        worst = max(
            marginal_consistency_distance(joint, target, subset)[0]
            for subset in strict_subsets(2, include_empty=False)
        )
        assert p_epsilon_membership(joint, target, worst)
        if worst > 0:
            assert not p_epsilon_membership(joint, target, worst * F(15, 16))


# --- fidelity, trace distance, and the sandwich ---------------------------------------


def test_fidelity_examples():
    assert fidelity((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))) == pytest.approx(1, abs=1e-12)
    assert fidelity((F(1), F(0)), (F(0), F(1))) == 0
    assert fidelity((F(1, 2), F(1, 2)), (F(1), F(0))) == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_trace_distance_examples():
    assert trace_distance((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))) == 0
    assert trace_distance((F(1), F(0)), (F(0), F(1))) == 1
    assert trace_distance((F(1, 2), F(1, 2)), (F(1), F(0))) == F(1, 2)


def test_fuchs_van_de_graaf_sandwich_random():
    rng = random.Random(73)
    for _ in range(300):
        n = rng.choice([2, 3, 5])
        p = rand_dist(rng, n)
        q = rand_dist(rng, n)
        f = fidelity(p, q)
        td = float(trace_distance(p, q))
        assert 1 - f <= td + 1e-9
        assert td <= math.sqrt(max(0.0, 1 - f * f)) + 1e-9


# --- the min-max fidelity functional ----------------------------------------------


def test_tilde_fidelity_one_for_consistent_joints():
    rng = random.Random(79)
    inputs = outputs = (2, 2)
    target = rand_dist(rng, 4)
    ns = random_ns_correlation(rng, inputs, outputs)
    entries = tuple(
        target[x] * ns.density(x, a) for x in range(4) for a in range(4)
    )
    joint = JointDistribution(inputs, outputs, entries)
    assert tilde_fidelity(joint, target) == pytest.approx(1, abs=1e-12)


def test_tilde_fidelity_zero_on_disjoint_support():
    target = (F(1), F(0), F(0), F(0))
    entries = [F(0)] * 16
    # all joint mass on inputs the target never asks
    entries[1 * 4 + 0] = F(1, 2)
    entries[2 * 4 + 3] = F(1, 2)
    joint = JointDistribution((2, 2), (2, 2), tuple(entries))
    assert tilde_fidelity(joint, target) == 0


def test_tilde_fidelity_needs_two_players():
    joint = JointDistribution((2,), (2,), (F(1, 4),) * 4)
    with pytest.raises(DomainError):
        tilde_fidelity(joint, (F(1, 2), F(1, 2)))


def tilde_fidelity_grid_oracle(joint: JointDistribution, target, step=1000):
    """Joint grid search over the local-response simplex, vectorized."""
    import numpy as np

    from nsgames.polytopes import _joint_subset_marginal

    best = None
    for subset in strict_subsets(2, include_empty=False):
        members = subset.members
        q_marg = _joint_subset_marginal(joint, subset)
        proj = mr.project(joint.input_alphabets, members)
        r = np.linspace(0.0, 1.0, step + 1)
        parts = []
        for x_i in range(2):
            c0 = 0.0
            c1 = 0.0
            for x in range(joint.n_inputs):
                if proj[x] != x_i:
                    continue
                t = float(target[x])
                c0 += math.sqrt(t * float(q_marg[x * 2]))
                c1 += math.sqrt(t * float(q_marg[x * 2 + 1]))
            parts.append(c0 * np.sqrt(r) + c1 * np.sqrt(1.0 - r))
        grid = parts[0][:, None] + parts[1][None, :]  # every joint (r0, r1) pair
        value = float(grid.max())
        best = value if best is None else min(best, value)
    return best


def test_tilde_fidelity_matches_grid_oracle():
    rng = random.Random(83)
    for _ in range(6):
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        closed = tilde_fidelity(joint, target)
        grid = tilde_fidelity_grid_oracle(joint, target)
        assert abs(closed - grid) <= 5e-3
        assert closed >= grid - 1e-9  # the grid can only undershoot the max


def test_non_membership_bounds_tilde_fidelity():
    rng = random.Random(89)
    checked = 0
    while checked < 25:
        joint = random_joint(rng, (2, 2), (2, 2))
        target = rand_dist(rng, 4)
        worst = max(
            marginal_consistency_distance(joint, target, subset)[0]
            for subset in strict_subsets(2, include_empty=False)
        )
        if worst == 0:
            continue
        eps = worst * F(15, 16)
        assert not p_epsilon_membership(joint, target, eps)
        f_tilde = tilde_fidelity(joint, target)
        assert f_tilde**2 <= 1 - float(eps) ** 2 + 1e-9
        checked += 1
