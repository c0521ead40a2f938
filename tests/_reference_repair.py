"""The dense block-by-block reconstruction, kept as a test oracle.

The package replaces one digit's marginal in place on a map of the nonzero
masses.  This module keeps the dense path: every conditional over the lifted
block alphabet is a full list, each block is moved to the front through a
front map, and the dense, checked `coupling_adjust` replaces its marginal.  The
arithmetic is exact, so the two must agree entry for entry:

    reconstruct_snos(joint, marginals) == repair.reconstruct_snos(...).densities
    reconstruct_multi_marginal(problem) == repair.reconstruct_multi_marginal(problem)
    coupling_adjust(joint, target, n_s, n_t) == repair.coupling_adjust(...)

The reconstructions here check no certificate: the package's entry points do.
"""

from __future__ import annotations

from fractions import Fraction

from nsgames._mixedradix import project, table_size
from nsgames.errors import DomainError, ShapeError
from nsgames.game_model import JointDistribution, strict_subsets

_ZERO = Fraction(0)


def check_distribution(values, what):
    values = tuple(Fraction(v) for v in values)
    if any(v < 0 for v in values):
        raise DomainError(f"{what} has negative entries")
    if sum(values, _ZERO) != 1:
        raise DomainError(f"{what} must be normalized")
    return values


def maximal_coupling(first, second):
    first = check_distribution(first, "first marginal")
    second = check_distribution(second, "second marginal")
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


def coupling_adjust(joint, target, n_first, n_second):
    if len(joint) != n_first * n_second:
        raise ShapeError("joint table size does not match the declared alphabets")
    if len(target) != n_first:
        raise ShapeError("target length does not match the first alphabet")
    joint = check_distribution(joint, "joint")
    target = check_distribution(target, "target")
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


def adjust_block_marginals(conditional, block_targets, block_outputs):
    """`coupling_adjust` once per block, on the layout with that block in front."""
    n_b = len(conditional)
    blocks = range(len(block_outputs))
    current = conditional
    for j, target in enumerate(block_targets):
        front = project(block_outputs, (j, *(p for p in blocks if p != j)))
        reshaped = [_ZERO] * n_b
        for idx in range(n_b):
            if current[idx]:
                reshaped[front[idx]] = current[idx]
        adjusted = coupling_adjust(reshaped, target, block_outputs[j], n_b // block_outputs[j])
        current = [adjusted[f] for f in front]
    return current


def _reconstruct_rows(rows, block_outputs, tables, z_projs):
    n_b = table_size(block_outputs)
    out = []
    for z, row in enumerate(rows):
        weight = sum(row, _ZERO)
        conditional = [v / weight for v in row] if weight > 0 else [Fraction(1, n_b)] * n_b
        targets = []
        for j, b_j in enumerate(block_outputs):
            z_j = z_projs[j][z]
            targets.append(tables[j][z_j * b_j : (z_j + 1) * b_j])
        out.append(adjust_block_marginals(conditional, targets, block_outputs))
    return out


def reconstruct_multi_marginal(problem):
    n_b = problem.n_b
    rows = [problem.joint[z * n_b : (z + 1) * n_b] for z in range(problem.n_z)]
    z_projs = [project(problem.block_inputs, (j,)) for j in range(problem.blocks)]
    adjusted = _reconstruct_rows(rows, problem.block_outputs, problem.marginals, z_projs)
    return tuple(v for row in adjusted for v in row)


def reconstruct_snos(joint: JointDistribution, marginals):
    """The densities of the SNOS reconstruction, lifted and restricted densely."""
    subsets = [s.members for s in strict_subsets(joint.players, include_empty=False)]
    block_outputs = tuple(
        table_size([joint.output_alphabets[i] for i in members]) for members in subsets
    )
    delta = project(joint.output_alphabets, [i for members in subsets for i in members])
    n_a, n_b = joint.n_outputs, table_size(block_outputs)
    rows = []
    for x in range(joint.n_inputs):
        lifted = [_ZERO] * n_b
        for a in range(n_a):
            lifted[delta[a]] += joint.value(x, a)
        rows.append(lifted)
    z_projs = [project(joint.input_alphabets, members) for members in subsets]
    tables = [tuple(Fraction(v) for v in marginals[members]) for members in subsets]
    adjusted = _reconstruct_rows(rows, block_outputs, tables, z_projs)
    return tuple(row[delta[a]] for row in adjusted for a in range(n_a))
