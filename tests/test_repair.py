import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgames import (
    Correlation,
    DomainError,
    JointDistribution,
    ReconstructionProblem,
    ShapeError,
    SubsetIndex,
    UnsupportedError,
    bump_up,
    coupling_adjust,
    LpProblem,
    is_ns,
    is_snos,
    lp_solve,
    maximal_coupling,
    nearest_ns,
    reconstruct_multi_marginal,
    reconstruct_snos,
    singles_complement_subsets,
    strict_subsets,
    trace_distance,
)
from nsgames import values
from nsgames._mixedradix import decode, project, table_size
from nsgames.polytopes import NS_MODE_ALL
from nsgames.repair import _certificate_distance

from conftest import (
    rand_dist,
    random_correlation,
    random_joint,
    random_ns_correlation,
    random_snos_correlation,
    subset_certificate_distance,
    subset_conditional_table,
)
import _reference_repair as dense

F = Fraction


# --- bump-up -----------------------------------------------------------------


def test_bump_up_returns_ns_input_unchanged(pr):
    assert bump_up(pr) is pr


def test_bump_up_half_box(pr):
    half = Correlation(pr.input_alphabets, pr.output_alphabets, tuple(v / 2 for v in pr.densities))
    lifted = bump_up(half)
    assert is_ns(lifted, NS_MODE_ALL).member
    assert all(b >= a for a, b in zip(half.densities, lifted.densities))


def test_bump_up_zero_concentrates_on_first_outputs():
    zero = Correlation((2, 2), (2, 2), (F(0),) * 16)
    lifted = bump_up(zero)
    expected = [F(0)] * 16
    for x in range(4):
        expected[x * 4] = F(1)
    assert lifted.densities == tuple(expected)


def test_bump_up_random_corpus():
    rng = random.Random(101)
    for _ in range(15):
        corr = random_snos_correlation(rng, (2, 2), (2, 2))
        lifted = bump_up(corr)
        assert is_ns(lifted, NS_MODE_ALL).member
        assert all(b >= a for a, b in zip(corr.densities, lifted.densities))


def test_bump_up_strictly_adds_mass_unless_ns():
    rng = random.Random(103)
    for _ in range(10):
        corr = random_snos_correlation(rng, (2, 2), (2, 2))
        lifted = bump_up(corr)
        if is_ns(corr, NS_MODE_ALL).member:
            assert lifted.densities == corr.densities
        else:
            assert sum(lifted.densities) > sum(corr.densities)


def test_bump_up_guards():
    three = Correlation((2, 2, 2), (2, 2, 2), (F(0),) * 64)
    with pytest.raises(UnsupportedError):
        bump_up(three)
    too_heavy = Correlation((2, 2), (2, 2), (F(1, 4),) * 16)
    heavier = Correlation((2, 2), (2, 2), tuple(v * 2 for v in too_heavy.densities))
    with pytest.raises(DomainError):
        bump_up(heavier)


# --- maximal coupling -----------------------------------------------------------


def test_coupling_identity_when_marginal_matches():
    rng = random.Random(107)
    joint = rand_dist(rng, 6)
    current = tuple(sum(joint[s * 3 : (s + 1) * 3], F(0)) for s in range(2))
    assert coupling_adjust(joint, current, 2, 3) == joint


def test_coupling_disjoint_supports():
    # all current mass on s=1; all target mass on s=0
    joint = (F(0), F(0), F(1, 2), F(1, 2))
    target = (F(1), F(0))
    adjusted = coupling_adjust(joint, target, 2, 2)
    assert adjusted == (F(1, 2), F(1, 2), F(0), F(0))
    moved = sum(abs(a - b) for a, b in zip(adjusted, joint))
    current = (F(0), F(1))
    assert moved == sum(abs(a - b) for a, b in zip(target, current)) == 2


def test_coupling_postconditions_random():
    rng = random.Random(109)
    for _ in range(60):
        n_s, n_t = rng.choice([2, 3]), rng.choice([2, 3, 4])
        joint = rand_dist(rng, n_s * n_t)
        target = rand_dist(rng, n_s)
        adjusted = coupling_adjust(joint, target, n_s, n_t)
        new_first = tuple(sum(adjusted[s * n_t : (s + 1) * n_t], F(0)) for s in range(n_s))
        assert new_first == target
        for t in range(n_t):
            assert sum(adjusted[s * n_t + t] for s in range(n_s)) == sum(
                joint[s * n_t + t] for s in range(n_s)
            )
        current = tuple(sum(joint[s * n_t : (s + 1) * n_t], F(0)) for s in range(n_s))
        l1_moved = sum(abs(a - b) for a, b in zip(adjusted, joint))
        assert l1_moved <= sum(abs(a - b) for a, b in zip(target, current))


def test_maximal_coupling_off_diagonal_mass_is_trace_distance():
    rng = random.Random(113)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        first = rand_dist(rng, n)
        second = rand_dist(rng, n)
        pi = maximal_coupling(first, second)
        assert tuple(sum(row, F(0)) for row in pi) == first
        assert tuple(sum(pi[s][s2] for s in range(n)) for s2 in range(n)) == second
        for s in range(n):
            assert pi[s][s] == min(first[s], second[s])
        off_diagonal = sum(pi[s][s2] for s in range(n) for s2 in range(n) if s != s2)
        assert off_diagonal == trace_distance(first, second)


def test_coupling_rejects_unnormalized():
    with pytest.raises(DomainError):
        coupling_adjust((F(1, 2), F(1, 4)), (F(1, 2), F(1, 2)), 2, 1)
    with pytest.raises(ShapeError):
        coupling_adjust((F(1, 2), F(1, 2)), (F(1),), 2, 2)


# --- multi-marginal reconstruction ------------------------------------------------


def _product_problem(rng, eps0=F(0), eps=(F(0), F(0))):
    target = rand_dist(rng, 4)
    q1 = rand_dist(rng, 2) + rand_dist(rng, 2)
    q2 = rand_dist(rng, 2) + rand_dist(rng, 2)
    joint = []
    for z in range(4):
        z1, z2 = divmod(z, 2)
        for b in range(4):
            b1, b2 = divmod(b, 2)
            joint.append(target[z] * q1[z1 * 2 + b1] * q2[z2 * 2 + b2])
    return ReconstructionProblem((2, 2), (2, 2), target, tuple(joint), (q1, q2), eps0, eps)


def _half_l1(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) / 2


def test_reconstruction_of_product_is_exact():
    rng = random.Random(127)
    problem = _product_problem(rng)
    conditional = reconstruct_multi_marginal(problem)
    lifted = [
        problem.target[z] * conditional[z * 4 + b] for z in range(4) for b in range(4)
    ]
    assert _half_l1(lifted, problem.joint) == 0


def _random_problem(rng, blocks=1):
    sizes_in = tuple(rng.choice([2, 3]) for _ in range(blocks))
    sizes_out = tuple(rng.choice([2, 3]) for _ in range(blocks))
    n_z = 1
    for s in sizes_in:
        n_z *= s
    n_b = 1
    for s in sizes_out:
        n_b *= s
    target = rand_dist(rng, n_z)
    joint = rand_dist(rng, n_z * n_b)
    marginals = tuple(
        tuple(v for z in range(sizes_in[j]) for v in rand_dist(rng, sizes_out[j]))
        for j in range(blocks)
    )
    # compute the exact tolerances achieved by this data, then pose the problem
    z_weight = [sum(joint[z * n_b : (z + 1) * n_b], F(0)) for z in range(n_z)]
    eps0 = _half_l1(z_weight, target)
    eps = tuple(
        _certificate_distance(joint, sizes_in, sizes_out, (j,), target, marginals[j])
        for j in range(blocks)
    )
    return ReconstructionProblem(sizes_in, sizes_out, target, joint, marginals, eps0, eps)


def test_reconstruction_single_block_error_bound():
    rng = random.Random(131)
    for _ in range(10):
        problem = _random_problem(rng, blocks=1)
        conditional = reconstruct_multi_marginal(problem)
        n_b = problem.n_b
        lifted = [
            problem.target[z] * conditional[z * n_b + b]
            for z in range(problem.n_z)
            for b in range(n_b)
        ]
        assert _half_l1(lifted, problem.joint) <= problem.eps0 + 2 * problem.eps[0]


def test_reconstruction_two_blocks_marginals_exactly_local():
    rng = random.Random(137)
    for _ in range(8):
        problem = _random_problem(rng, blocks=2)
        conditional = reconstruct_multi_marginal(problem)
        n_b = problem.n_b
        b0, b1 = problem.block_outputs
        for z in range(problem.n_z):
            z0, z1 = divmod(z, problem.block_inputs[1])
            row = conditional[z * n_b : (z + 1) * n_b]
            for v0 in range(b0):
                got = sum(row[v0 * b1 + v1] for v1 in range(b1))
                assert got == problem.marginals[0][z0 * b0 + v0]
            for v1 in range(b1):
                got = sum(row[v0 * b1 + v1] for v0 in range(b0))
                assert got == problem.marginals[1][z1 * b1 + v1]
        lifted = [
            problem.target[z] * conditional[z * n_b + b]
            for z in range(problem.n_z)
            for b in range(n_b)
        ]
        budget = problem.eps0 + 2 * sum(problem.eps, F(0))
        assert _half_l1(lifted, problem.joint) <= budget


@pytest.mark.parametrize("count", [1, 3])
def test_reconstruction_problem_needs_one_table_per_block(count):
    q = (F(1, 2),) * 4
    with pytest.raises(ShapeError, match="one marginal table per block"):
        ReconstructionProblem(
            (2, 2), (2, 2), (F(1, 4),) * 4, (F(1, 16),) * 16, (q,) * count, 1, (1, 1)
        )


def test_reconstruction_problem_validates_certificates():
    rng = random.Random(139)
    target = rand_dist(rng, 4)
    joint = rand_dist(rng, 16)
    marginals = (rand_dist(rng, 2) + rand_dist(rng, 2),) * 2
    with pytest.raises(DomainError, match="tolerance violated"):
        ReconstructionProblem((2, 2), (2, 2), target, joint, marginals, F(0), (F(2), F(2)))


# --- SNOS reconstruction -------------------------------------------------------------


def _certified_instance(rng, players, noise=F(1, 10)):
    inputs = outputs = (2,) * players
    n_x = n_a = 2**players
    target = rand_dist(rng, n_x)
    reference = random_ns_correlation(rng, inputs, outputs)
    box = random_joint(rng, inputs, outputs)
    entries = tuple(
        (1 - noise) * target[x] * reference.density(x, a) + noise * box.value(x, a)
        for x in range(n_x)
        for a in range(n_a)
    )
    joint = JointDistribution(inputs, outputs, entries)
    marginals = {}
    epsilons = {}
    for subset in strict_subsets(players, include_empty=False):
        table = subset_conditional_table(reference, subset)
        marginals[subset.members] = table
        epsilons[subset.members] = subset_certificate_distance(joint, target, subset, table)
    epsilons[()] = _half_l1(joint.input_marginal(), target)
    return target, joint, marginals, epsilons


def _achieved_distance(target, joint, repaired):
    total = F(0)
    for x in range(joint.n_inputs):
        for a in range(joint.n_outputs):
            total += abs(target[x] * repaired.density(x, a) - joint.value(x, a))
    return total / 2


def test_reconstruct_snos_exact_when_consistent():
    rng = random.Random(149)
    target, joint, marginals, epsilons = _certified_instance(rng, 2, noise=F(0))
    assert all(e == 0 for e in epsilons.values())
    repaired = reconstruct_snos(target, joint, marginals, epsilons)
    assert _achieved_distance(target, joint, repaired) == 0


def test_reconstruct_snos_three_players():
    rng = random.Random(151)
    for _ in range(5):
        target, joint, marginals, epsilons = _certified_instance(rng, 3)
        repaired = reconstruct_snos(target, joint, marginals, epsilons)
        assert is_snos(repaired).member
        budget = epsilons[()] + 2 * sum(v for k, v in epsilons.items() if k != ())
        assert _achieved_distance(target, joint, repaired) <= budget


def test_reconstruct_snos_two_players_gives_ns():
    rng = random.Random(157)
    for _ in range(5):
        target, joint, marginals, epsilons = _certified_instance(rng, 2)
        repaired = reconstruct_snos(target, joint, marginals, epsilons)
        assert is_ns(repaired, NS_MODE_ALL).member
        budget = epsilons[()] + 2 * sum(v for k, v in epsilons.items() if k != ())
        assert _achieved_distance(target, joint, repaired) <= budget


def test_reconstruct_snos_rejects_bad_certificates():
    rng = random.Random(163)
    target, joint, marginals, epsilons = _certified_instance(rng, 2)
    bad = dict(epsilons)
    victim = next(k for k in bad if k != () and bad[k] > 0)
    bad[victim] = bad[victim] / 2
    with pytest.raises(DomainError, match=re.escape(f"subset {victim}")):
        reconstruct_snos(target, joint, marginals, bad)


def test_reconstruct_snos_requires_all_subsets():
    rng = random.Random(167)
    target, joint, marginals, epsilons = _certified_instance(rng, 2)
    marginals.pop((0,))
    with pytest.raises(DomainError, match="missing marginal tables"):
        reconstruct_snos(target, joint, marginals, epsilons)


def test_reconstruct_snos_requires_all_tolerances():
    rng = random.Random(167)
    target, joint, marginals, epsilons = _certified_instance(rng, 3)
    epsilons.pop(())
    epsilons.pop((0, 1))
    with pytest.raises(DomainError, match=re.escape("missing tolerances for subsets [(), (0, 1)]")):
        reconstruct_snos(target, joint, marginals, epsilons)


@pytest.mark.parametrize("row", [(F(3, 2), F(-1, 2)), (F(1, 2), F(1, 4))])
def test_reconstruct_snos_names_the_subset_of_a_malformed_table(row):
    rng = random.Random(173)
    target, joint, marginals, epsilons = _certified_instance(rng, 2)
    marginals[(1,)] = row + tuple(marginals[(1,)][2:])
    with pytest.raises(
        DomainError,
        match=re.escape("marginal table for subset (1,) is not a conditional distribution"),
    ):
        reconstruct_snos(target, joint, marginals, epsilons)


# --- the dense reference path ----------------------------------------------------------


@st.composite
def _distributions(draw, n):
    """An exact distribution on n points with small weights, zeros included."""
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if not any(weights):
        weights[-1] = 1
    return tuple(F(w, sum(weights)) for w in weights)


@st.composite
def _tables(draw, sizes_in, sizes_out, members):
    """A conditional table over the digits `members` of both alphabets."""
    n_in = table_size([sizes_in[i] for i in members])
    n_out = table_size([sizes_out[i] for i in members])
    return tuple(v for _ in range(n_in) for v in draw(_distributions(n_out)))


@st.composite
def _joints(draw, kind, target, n_b, product_row):
    """Entries over Z x B (z major): target(z) times `product_row(z)`, whose
    block marginals already match every table (`product`, the early return),
    or a random joint, whose first input carries no mass for `zero-row` (the
    uniform branch)."""
    if kind == "product":
        return tuple(t * v for z, t in enumerate(target) for v in product_row(z))
    size = len(target) * n_b
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    if kind == "zero-row":
        weights[:n_b] = [0] * n_b
    if not any(weights):
        weights[-1] = 1
    return tuple(F(w, sum(weights)) for w in weights)


def _product_row(sizes_in, sizes_out, tables, z):
    """prod_j Q_j(b_j | z_j) over every b, for the per-digit tables Q_j."""
    zs = decode(z, sizes_in)
    row = []
    for b in range(table_size(sizes_out)):
        v = F(1)
        for j, b_j in enumerate(decode(b, sizes_out)):
            v *= tables[j][zs[j] * sizes_out[j] + b_j]
        row.append(v)
    return row


@st.composite
def _reconstruction_problems(draw, kind):
    blocks = draw(st.integers(1, 3))
    sizes_in = tuple(draw(st.integers(1, 3)) for _ in range(blocks))
    sizes_out = tuple(draw(st.integers(1, 3)) for _ in range(blocks))
    marginals = tuple(draw(_tables(sizes_in, sizes_out, (j,))) for j in range(blocks))
    target = draw(_distributions(table_size(sizes_in)))
    n_b = table_size(sizes_out)
    joint = draw(_joints(kind, target, n_b, partial(_product_row, sizes_in, sizes_out, marginals)))
    z_weight = [sum(joint[z * n_b : (z + 1) * n_b], F(0)) for z in range(len(target))]
    eps = tuple(
        _certificate_distance(joint, sizes_in, sizes_out, (j,), target, marginals[j])
        for j in range(blocks)
    )
    return ReconstructionProblem(
        sizes_in, sizes_out, target, joint, marginals, trace_distance(z_weight, target), eps
    )


@st.composite
def _snos_instances(draw, kind):
    players = draw(st.integers(2, 3))
    top = 3 if players == 2 else 2
    inputs = tuple(draw(st.integers(1, top)) for _ in range(players))
    outputs = tuple(draw(st.integers(1, top)) for _ in range(players))
    local = [draw(_tables(inputs, outputs, (i,))) for i in range(players)]
    subsets = strict_subsets(players, include_empty=False)
    target = draw(_distributions(table_size(inputs)))
    product_row = partial(_product_row, inputs, outputs, local)
    entries = draw(_joints(kind, target, table_size(outputs), product_row))
    joint = JointDistribution(inputs, outputs, entries)
    marginals = {}
    for subset in subsets:
        members = subset.members
        if kind == "product":  # the subset conditionals of the product correlation
            sub_in = [inputs[i] for i in members]
            sub_out = [outputs[i] for i in members]
            table = tuple(
                v
                for x_i in range(table_size(sub_in))
                for v in _product_row(sub_in, sub_out, [local[i] for i in members], x_i)
            )
        else:
            table = draw(_tables(inputs, outputs, members))
        marginals[members] = table
    epsilons = {
        s.members: subset_certificate_distance(joint, target, s, marginals[s.members])
        for s in subsets
    }
    epsilons[()] = trace_distance(joint.input_marginal(), target)
    return target, joint, marginals, epsilons


_KINDS = ["random", "zero-row", "product"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coupling_matches_dense_reference(data):
    n_s, n_t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    joint = data.draw(_distributions(n_s * n_t))
    if data.draw(st.booleans()):  # the marginal already matches: the early return
        target = tuple(sum(joint[s * n_t : (s + 1) * n_t], F(0)) for s in range(n_s))
    else:
        target = data.draw(_distributions(n_s))
    assert coupling_adjust(joint, target, n_s, n_t) == dense.coupling_adjust(
        joint, target, n_s, n_t
    )
    other = data.draw(_distributions(n_s))
    assert maximal_coupling(target, other) == dense.maximal_coupling(target, other)


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_multi_marginal_reconstruction_matches_dense_reference(kind, data):
    problem = data.draw(_reconstruction_problems(kind))
    assert reconstruct_multi_marginal(problem) == dense.reconstruct_multi_marginal(problem)


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_snos_reconstruction_matches_dense_reference(kind, data):
    target, joint, marginals, epsilons = data.draw(_snos_instances(kind))
    repaired = reconstruct_snos(target, joint, marginals, epsilons)
    assert repaired.densities == dense.reconstruct_snos(joint, marginals)


# --- nearest NS correlation -----------------------------------------------------------


def test_nearest_ns_of_ns_is_zero(pr):
    target = (F(1, 4),) * 4
    witness, distance = nearest_ns(target, pr)
    assert distance == 0
    assert is_ns(witness, NS_MODE_ALL).member


def _signalling_box() -> Correlation:
    dens = []
    for x in range(4):
        y1, y2 = divmod(x, 2)
        for a in range(4):
            a1, a2 = divmod(a, 2)
            dens.append(F(1) if (a1 == y2 and a2 == y1) else F(0))
    return Correlation((2, 2), (2, 2), tuple(dens))


def test_nearest_ns_of_signalling_box_is_positive():
    witness, distance = nearest_ns((F(1, 4),) * 4, _signalling_box())
    assert distance > 0
    assert is_ns(witness, NS_MODE_ALL).member


def test_nearest_ns_of_bump_up_output_is_zero():
    rng = random.Random(173)
    corr = random_snos_correlation(rng, (2, 2), (2, 2))
    lifted = bump_up(corr)
    _, distance = nearest_ns((F(1, 4),) * 4, lifted)
    assert distance == 0


def test_nearest_ns_requires_normalization():
    rng = random.Random(179)
    corr = random_correlation(rng, (2, 2), (2, 2), scale=F(1, 3))
    with pytest.raises(DomainError):
        nearest_ns((F(1, 4),) * 4, corr)


def _equality_form_distance(target, conditional: Correlation) -> Fraction:
    """The projection distance from the LP over the full P'' table: per-input
    normalization, the singleton-complement marginal equalities, and
    u >= |T (P'' - P')| with objective (1/2) sum u."""
    n_x, n_a = conditional.n_inputs, conditional.n_outputs
    n_p = n_x * n_a
    rows = []
    for x in range(n_x):
        coeffs = [F(0)] * (2 * n_p)
        coeffs[x * n_a : (x + 1) * n_a] = [F(1)] * n_a
        rows.append((tuple(coeffs), "=", F(1)))
    for subset in singles_complement_subsets(conditional.players):
        members = subset.members
        x_proj = project(conditional.input_alphabets, members)
        a_proj = project(conditional.output_alphabets, members)
        first: dict[int, int] = {}
        for x in range(n_x):
            ref = first.setdefault(x_proj[x], x)
            if ref == x:
                continue
            for a_i in set(a_proj):
                coeffs = [F(0)] * (2 * n_p)
                for a in range(n_a):
                    if a_proj[a] == a_i:
                        coeffs[x * n_a + a] += 1
                        coeffs[ref * n_a + a] -= 1
                rows.append((tuple(coeffs), "=", F(0)))
    for idx in range(n_p):
        t = target[idx // n_a]
        rhs = t * conditional.densities[idx]
        for sign in (1, -1):
            coeffs = [F(0)] * (2 * n_p)
            coeffs[idx] = sign * t
            coeffs[n_p + idx] = F(-1)
            rows.append((tuple(coeffs), "<=", sign * rhs))
    objective = (F(0),) * n_p + (F(1, 2),) * n_p
    return lp_solve(LpProblem(objective, tuple(rows), maximize=False)).value


def _normalized_correlation(rng, inputs, outputs) -> Correlation:
    n_x, n_a = table_size(inputs), table_size(outputs)
    dens = tuple(p for _ in range(n_x) for p in rand_dist(rng, n_a, 8))
    return Correlation(tuple(inputs), tuple(outputs), dens)


def _projection_cases():
    rng = random.Random(181)
    return {
        "signalling-box": ((F(1, 4),) * 4, _signalling_box()),
        "ragged": (rand_dist(rng, 6), _normalized_correlation(rng, (3, 2), (2, 3))),
        "three-player": (rand_dist(rng, 8), _normalized_correlation(rng, (2, 2, 2), (2, 2, 2))),
        "zero-weight-input": (
            (F(0), F(1, 2), F(1, 4), F(1, 4)),
            _normalized_correlation(rng, (2, 2), (2, 2)),
        ),
        "one-output-player": (rand_dist(rng, 4), _normalized_correlation(rng, (2, 2), (1, 3))),
        "one-output-players": (rand_dist(rng, 6), _normalized_correlation(rng, (2, 3), (1, 1))),
    }


@pytest.mark.parametrize("case", list(_projection_cases()))
def test_nearest_ns_matches_equality_form_lp(case):
    target, conditional = _projection_cases()[case]
    witness, distance = nearest_ns(target, conditional)
    assert distance == _equality_form_distance(target, conditional)
    assert is_ns(witness, NS_MODE_ALL).member
    n_a = conditional.n_outputs

    def weighted(corr):
        return [target[i // n_a] * p for i, p in enumerate(corr.densities)]

    assert trace_distance(weighted(witness), weighted(conditional)) == distance


def test_nearest_ns_lp_has_no_equality_rows(monkeypatch):
    captured = []

    def spy(problem, **options):
        captured.append(problem)
        return lp_solve(problem, **options)

    monkeypatch.setattr(values, "lp_solve", spy)
    target, conditional = _projection_cases()["three-player"]
    nearest_ns(target, conditional)
    (problem,) = captured
    assert all(relation != "=" for _, relation, _ in problem.constraints)
