"""Independent reference checks, written from the definitions in the package
README and sharing no code with the package.

Exact checks (used by every benchmark run to verify answers):
  * `product_game` — the n-fold repetition or threshold game,
  * `winning_probability` — sum_x T(x) sum_a V(a, x) P(a|x),
  * `is_ns` / `is_snos` — membership tested on every strict player subset,
  * `weighted_distance` — (1/2) sum_x T(x) sum_a |P(a|x) - R(a|x)|.

Used only by the benchmark's tests: `classical_value` by enumeration, and
the float LPs solved by scipy's HiGHS:
`ns_value_lp`, `snos_value_lp` and `nearest_ns_lp` build the *unreduced*
LPs over the full correlation table, with no symmetry reduction.

Tables follow the package layout: mixed-radix indices with the last player
fastest, correlation entries at x * n_outputs + a, and for repeated games
player i's symbol holds its per-round values with the last round fastest.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def decode(index: int, radii) -> tuple[int, ...]:
    out = []
    for radix in reversed(radii):
        index, digit = divmod(index, radix)
        out.append(digit)
    return tuple(reversed(out))


def encode(digits, radii) -> int:
    index = 0
    for digit, radix in zip(digits, radii):
        index = index * radix + digit
    return index


def strict_subsets(players: int, include_empty: bool):
    start = 0 if include_empty else 1
    for size in range(start, players):
        yield from itertools.combinations(range(players), size)


def product_game(inputs, outputs, dist, pred, rounds: int, threshold: int | None = None):
    """(inputs, outputs, dist, pred) of the `rounds`-fold parallel repetition,
    won on at least `threshold` rounds (all rounds when None)."""
    players = len(inputs)
    n_x, n_a = math.prod(inputs), math.prod(outputs)
    rep_in = tuple(s**rounds for s in inputs)
    rep_out = tuple(s**rounds for s in outputs)
    need = rounds if threshold is None else threshold

    def joint(per_round, base, rep):
        tuples = [decode(j, base) for j in per_round]
        return encode(
            [encode([t[i] for t in tuples], (base[i],) * rounds) for i in range(players)], rep
        )

    new_dist = [Fraction(0)] * math.prod(rep_in)
    new_pred = [0] * (math.prod(rep_in) * math.prod(rep_out))
    a_rounds = list(itertools.product(range(n_a), repeat=rounds))
    a_index = [joint(a_r, outputs, rep_out) for a_r in a_rounds]
    for x_r in itertools.product(range(n_x), repeat=rounds):
        x = joint(x_r, inputs, rep_in)
        new_dist[x] = math.prod((dist[j] for j in x_r), start=Fraction(1))
        for a_r, a in zip(a_rounds, a_index):
            wins = sum(pred[j * n_a + k] for j, k in zip(x_r, a_r))
            new_pred[x * math.prod(rep_out) + a] = int(wins >= need)
    return rep_in, rep_out, tuple(new_dist), tuple(new_pred)


def winning_probability(dist, pred, densities) -> Fraction:
    n_a = len(pred) // len(dist)
    total = Fraction(0)
    for x, t in enumerate(dist):
        if t:
            row = x * n_a
            total += t * sum(
                (densities[row + a] for a in range(n_a) if pred[row + a]), Fraction(0)
            )
    return total


def _subset_marginals(inputs, outputs, densities, members):
    """{(x, a_I): P(a_I|x)} for the players in `members`."""
    n_a = math.prod(outputs)
    out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for idx, p in enumerate(densities):
        x, a = divmod(idx, n_a)
        a_tup = decode(a, outputs)
        key = (x, tuple(a_tup[i] for i in members))
        out[key] = out.get(key, Fraction(0)) + p
    return out


def is_ns(inputs, outputs, densities) -> bool:
    """Normalized per input, and every strict-subset marginal depends only on
    the inputs of that subset."""
    n_a = math.prod(outputs)
    if any(p < 0 for p in densities):
        return False
    if any(sum(densities[x * n_a : (x + 1) * n_a]) != 1 for x in range(math.prod(inputs))):
        return False
    for members in strict_subsets(len(inputs), include_empty=False):
        seen: dict[tuple, Fraction] = {}
        for (x, a_i), p in _subset_marginals(inputs, outputs, densities, members).items():
            x_tup = decode(x, inputs)
            key = (tuple(x_tup[i] for i in members), a_i)
            if seen.setdefault(key, p) != p:
                return False
    return True


def dominator_mass(inputs, outputs, densities) -> Fraction:
    """Largest total mass, over every strict subset I (the empty one included)
    and every x_I, of the pointwise-largest I-marginal over x_{I^c}."""
    worst = Fraction(0)
    for members in strict_subsets(len(inputs), include_empty=True):
        dominator: dict[tuple, Fraction] = {}
        for (x, a_i), p in _subset_marginals(inputs, outputs, densities, members).items():
            x_tup = decode(x, inputs)
            key = (tuple(x_tup[i] for i in members), a_i)
            if p > dominator.get(key, Fraction(0)):
                dominator[key] = p
        mass: dict[tuple, Fraction] = {}
        for (x_i, _), m in dominator.items():
            mass[x_i] = mass.get(x_i, Fraction(0)) + m
        worst = max(worst, *mass.values())
    return worst


def is_snos(inputs, outputs, densities) -> bool:
    """Nonnegative, and every subset's smallest dominator has mass at most 1."""
    return all(p >= 0 for p in densities) and dominator_mass(inputs, outputs, densities) <= 1


def weighted_distance(target, first, second) -> Fraction:
    """(1/2) sum_x T(x) sum_a |first(a|x) - second(a|x)|."""
    n_a = len(first) // len(target)
    return sum(
        (target[i // n_a] * abs(p - q) for i, (p, q) in enumerate(zip(first, second))),
        Fraction(0),
    ) / 2


def subset_conditional(inputs, outputs, densities, members) -> tuple[Fraction, ...]:
    """Q_I(a_I|x_I), x_I major, read off a no-signalling correlation."""
    in_sizes = tuple(inputs[i] for i in members)
    out_sizes = tuple(outputs[i] for i in members)
    n_a_i = math.prod(out_sizes)
    table = [Fraction(0)] * (math.prod(in_sizes) * n_a_i)
    for (x, a_i), p in _subset_marginals(inputs, outputs, densities, members).items():
        x_tup = decode(x, inputs)
        table[encode([x_tup[i] for i in members], in_sizes) * n_a_i + encode(a_i, out_sizes)] = p
    return tuple(table)


def certificate_distance(inputs, outputs, target, joint, members, table) -> Fraction:
    """(1/2) || joint_{A_I X} - T . Q_I ||_1 for one player subset."""
    in_sizes = tuple(inputs[i] for i in members)
    out_sizes = tuple(outputs[i] for i in members)
    n_a_i = math.prod(out_sizes)
    got = _subset_marginals(inputs, outputs, joint, members)
    total = Fraction(0)
    for x in range(math.prod(inputs)):
        x_tup = decode(x, inputs)
        row = encode([x_tup[i] for i in members], in_sizes) * n_a_i
        for a_i in itertools.product(*(range(s) for s in out_sizes)):
            want = target[x] * table[row + encode(a_i, out_sizes)]
            total += abs(got.get((x, a_i), Fraction(0)) - want)
    return total / 2


# --- unreduced float LPs (tests only) ----------------------------------------


def _signalling_rows(inputs, outputs, members):
    """Rows P_I(a_I|x) - P_I(a_I|x') = 0 for x, x' that agree on I."""
    n_x, n_a = math.prod(inputs), math.prod(outputs)
    out_sizes = tuple(outputs[i] for i in members)
    blocks: dict[tuple, list[int]] = {}
    for x in range(n_x):
        x_tup = decode(x, inputs)
        blocks.setdefault(tuple(x_tup[i] for i in members), []).append(x)
    rows = []
    for xs in blocks.values():
        for x in xs[1:]:
            for a_i in range(math.prod(out_sizes)):
                row = {}
                for a in range(n_a):
                    a_tup = decode(a, outputs)
                    if encode([a_tup[i] for i in members], out_sizes) == a_i:
                        row[x * n_a + a] = row.get(x * n_a + a, 0.0) + 1.0
                        row[xs[0] * n_a + a] = row.get(xs[0] * n_a + a, 0.0) - 1.0
                rows.append(row)
    return rows


def _sparse(rows, n_vars):
    from scipy.sparse import csr_matrix

    data, cols, ptr = [], [], [0]
    for row in rows:
        for j, v in row.items():
            cols.append(j)
            data.append(v)
        ptr.append(len(cols))
    return csr_matrix((data, cols, ptr), shape=(len(rows), n_vars))


def _linprog(c, ub_rows, ub_rhs, eq_rows, eq_rhs, n_vars) -> float:
    from scipy.optimize import linprog

    res = linprog(
        c,
        A_ub=_sparse(ub_rows, n_vars) if ub_rows else None,
        b_ub=ub_rhs or None,
        A_eq=_sparse(eq_rows, n_vars) if eq_rows else None,
        b_eq=eq_rhs or None,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def _objective(dist, pred, n_vars):
    n_a = len(pred) // len(dist)
    c = [0.0] * n_vars
    for idx, v in enumerate(pred):
        if v:
            c[idx] = -float(dist[idx // n_a])
    return c


def ns_value_lp(inputs, outputs, dist, pred) -> float:
    """max sum T.V.P over P >= 0 normalized, with every strict-subset marginal
    local."""
    n_x, n_a = math.prod(inputs), math.prod(outputs)
    n_vars = n_x * n_a
    eq_rows = [{x * n_a + a: 1.0 for a in range(n_a)} for x in range(n_x)]
    eq_rhs = [1.0] * n_x
    for members in strict_subsets(len(inputs), include_empty=False):
        rows = _signalling_rows(inputs, outputs, members)
        eq_rows += rows
        eq_rhs += [0.0] * len(rows)
    return -_linprog(_objective(dist, pred, n_vars), [], [], eq_rows, eq_rhs, n_vars)


def snos_value_lp(inputs, outputs, dist, pred) -> float:
    """max sum T.V.P over P >= 0 with dominators M_I(a_I, x_I) >= 0 per
    nonempty strict subset: P_I(a_I|x) <= M_I(a_I, x_I), sum_{a_I} M_I <= 1,
    and total mass at most 1 per input."""
    n_x, n_a = math.prod(inputs), math.prod(outputs)
    n_p = n_x * n_a
    ub_rows = [{x * n_a + a: 1.0 for a in range(n_a)} for x in range(n_x)]
    ub_rhs = [1.0] * n_x
    offset = n_p
    for members in strict_subsets(len(inputs), include_empty=False):
        in_sizes = tuple(inputs[i] for i in members)
        out_sizes = tuple(outputs[i] for i in members)
        n_a_i = math.prod(out_sizes)
        for x in range(n_x):
            x_tup = decode(x, inputs)
            x_i = encode([x_tup[i] for i in members], in_sizes)
            for a_i in range(n_a_i):
                row = {offset + x_i * n_a_i + a_i: -1.0}
                for a in range(n_a):
                    a_tup = decode(a, outputs)
                    if encode([a_tup[i] for i in members], out_sizes) == a_i:
                        row[x * n_a + a] = 1.0
                ub_rows.append(row)
                ub_rhs.append(0.0)
        for x_i in range(math.prod(in_sizes)):
            ub_rows.append({offset + x_i * n_a_i + a_i: 1.0 for a_i in range(n_a_i)})
            ub_rhs.append(1.0)
        offset += math.prod(in_sizes) * n_a_i
    return -_linprog(_objective(dist, pred, offset), ub_rows, ub_rhs, [], [], offset)


def nearest_ns_lp(inputs, outputs, target, densities) -> float:
    """min (1/2) sum u over NS tables R with u >= |T(x) (R(a|x) - P(a|x))|."""
    n_x, n_a = math.prod(inputs), math.prod(outputs)
    n_p = n_x * n_a
    n_vars = 2 * n_p
    eq_rows = [{x * n_a + a: 1.0 for a in range(n_a)} for x in range(n_x)]
    eq_rhs = [1.0] * n_x
    for members in strict_subsets(len(inputs), include_empty=False):
        rows = _signalling_rows(inputs, outputs, members)
        eq_rows += rows
        eq_rhs += [0.0] * len(rows)
    ub_rows, ub_rhs = [], []
    for idx in range(n_p):
        t = float(target[idx // n_a])
        p = float(densities[idx])
        ub_rows += [{idx: t, n_p + idx: -1.0}, {idx: -t, n_p + idx: -1.0}]
        ub_rhs += [t * p, -t * p]
    c = [0.0] * n_p + [0.5] * n_p
    return _linprog(c, ub_rows, ub_rhs, eq_rows, eq_rhs, n_vars)


def classical_value(inputs, outputs, dist, pred) -> Fraction:
    """max over deterministic strategies (one output per player and input)."""
    players = len(inputs)
    n_a = math.prod(outputs)
    x_tuples = [decode(x, inputs) for x in range(len(dist))]
    per_player = [list(itertools.product(range(outputs[i]), repeat=inputs[i])) for i in range(players)]
    best = Fraction(0)
    for choice in itertools.product(*per_player):
        won = Fraction(0)
        for x, x_tup in enumerate(x_tuples):
            a = encode([choice[i][x_tup[i]] for i in range(players)], outputs)
            if pred[x * n_a + a]:
                won += dist[x]
        best = max(best, won)
    return best
