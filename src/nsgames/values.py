"""Exact game values for the no-signalling, sub-no-signalling and classical
strategy classes.

The NS and SNOS values are linear programs over the correlation table:

* NS:   maximize sum T.V.P  over the Collins-Gisin coordinates of the NS
  polytope: one variable per subset marginal p_I(a_I|x_I), for every
  nonempty player subset I, with no output of I at its player's last
  symbol.  Normalization and every no-signalling equality hold by
  construction; the only rows are P(a|x) >= 0, expanded by inclusion-exclusion
  into `<=` rows with right-hand side 0 or 1, so the slack basis (every
  player outputs its last symbol) is feasible and phase 1 never runs.  The
  witness is expanded back to the P table and re-verified against *all*
  subsets.
* SNOS: same objective over P >= 0 with auxiliary dominator tables
  M_I(a_I, x_I) per nonempty strict subset, the constraints
  P(a_I|x) <= M_I(a_I, x_I), per-x_I dominator mass at most 1, and total
  mass at most 1 per input.

Both LPs are assembled in a symmetry-reduced variable space: entries of P
and of the M tables (SNOS), or Collins-Gisin coordinates (NS), that lie in one
orbit of the game's verified symmetry group share a single variable; the NS
LP uses the subgroup fixing every player's last output symbol.  Averaging an
optimal solution over the group is again feasible with the same objective, so
the quotient LP has exactly the original optimum; the expanded witness is
re-verified after every solve.  The
caller can pass `rounds=n` for games built by `repeat_game`/`threshold_game`
to enable round-permutation symmetries — candidates are checked exactly
against (T, V) before use, so a wrong hint can only cost speed, never
correctness.

The classical value is a brute-force maximum over all deterministic
strategies (the extreme points of the classical set), which doubles as an
LP-free oracle.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import _mixedradix as mr
from ._symmetry import (
    Symmetry,
    index_action,
    player_permutation_candidates,
    round_permutation_candidates,
    subset_action,
    symmetry_group,
)
from .errors import NsGamesError, ResourceLimitError
from .exact_lp import LpProblem, LpSolution, lp_solve
from .game_model import (
    DEFAULT_TABLE_CAP,
    Correlation,
    Game,
    _infer_base_alphabets,
    strict_subsets,
    winning_probability,
)
from .polytopes import NS_MODE_ALL, is_ns, is_snos

#: Default cap on the deterministic-strategy enumeration of value_classical.
DEFAULT_STRATEGY_CAP = 10**8

_ZERO = Fraction(0)
_ONE = Fraction(1)

MODEL_NS = "ns"
MODEL_SNOS = "snos"
MODEL_CLASSICAL = "classical"

#: group elements with their induced input and output index permutations
_Group = list[tuple[Symmetry, list[int], list[int]]]
#: P(a|x) = constant + sum coeff * v[var], as ({var: coeff}, constant)
_Form = tuple[dict[int, int], int]


@dataclass(frozen=True)
class ValueResult:
    """An exact game value together with an optimal strategy witness.

    The witness always passes the membership check of its model and achieves
    the reported value exactly (both re-verified before this object is
    returned).
    """

    model: str
    value: Fraction
    strategy: Correlation


# --- symmetry plumbing ------------------------------------------------------


def _group_perms(
    game: Game, rounds: int, use_symmetry: bool
) -> _Group:
    candidates: list[Symmetry] = []
    if use_symmetry:
        candidates.extend(player_permutation_candidates(game))
    if rounds > 1:
        base_in = _infer_base_alphabets(game.input_alphabets, rounds, "input")
        base_out = _infer_base_alphabets(game.output_alphabets, rounds, "output")
        candidates.extend(round_permutation_candidates(base_in, base_out, rounds))
    group = symmetry_group(game, candidates)
    return [
        (
            sym,
            index_action(sym, game.input_alphabets, sym.input_perms),
            index_action(sym, game.output_alphabets, sym.output_perms),
        )
        for sym in group
    ]


def _pair_orbits(n_x: int, n_a: int, group: _Group) -> tuple[list[int], int]:
    """Orbit id per P-table index (x * n_a + a), ids in first-seen order."""
    orbit_of = [-1] * (n_x * n_a)
    count = 0
    for seed in range(n_x * n_a):
        if orbit_of[seed] >= 0:
            continue
        stack = [seed]
        orbit_of[seed] = count
        while stack:
            cur = stack.pop()
            x, a = divmod(cur, n_a)
            for _, px, pa in group[1:]:
                img = px[x] * n_a + pa[a]
                if orbit_of[img] < 0:
                    orbit_of[img] = count
                    stack.append(img)
        count += 1
    return orbit_of, count


def _subset_orbits(
    inputs: tuple[int, ...],
    group: _Group,
    masks: Sequence[int],
    out_alphabets: tuple[int, ...],
) -> tuple[dict[int, tuple], dict[tuple[int, int, int], int], int]:
    """Orbit ids of subset coordinates (mask, x_I, a_I), in first-seen order.

    Player i's coordinate inputs range over `inputs[i]` symbols and its
    outputs over `out_alphabets[i]`; every group element must map those
    ranges onto themselves.  Returns the (members, input sizes, output sizes)
    of each mask, the orbit id per coordinate and the orbit count.
    """
    mask_info: dict[int, tuple] = {}
    orbit_of: dict[tuple[int, int, int], int] = {}
    for mask in masks:
        members = tuple(i for i in range(len(inputs)) if mask >> i & 1)
        in_sizes = tuple(inputs[i] for i in members)
        out_sizes = tuple(out_alphabets[i] for i in members)
        mask_info[mask] = (members, in_sizes, out_sizes)
        for x_i in range(mr.table_size(in_sizes)):
            for a_i in range(mr.table_size(out_sizes)):
                orbit_of[(mask, x_i, a_i)] = -1

    count = 0
    for seed in list(orbit_of):
        if orbit_of[seed] >= 0:
            continue
        stack = [seed]
        orbit_of[seed] = count
        while stack:
            mask, x_i, a_i = stack.pop()
            members, in_sizes, out_sizes = mask_info[mask]
            a_tup = mr.decode(a_i, out_sizes)
            x_tup = mr.decode(x_i, in_sizes)
            for sym, _, _ in group[1:]:
                nm, na, nx = subset_action(sym, members, a_tup, x_tup)
                nmask = sum(1 << i for i in nm)
                _, nin, nout = mask_info[nmask]
                img = (nmask, mr.encode(nx, nin), mr.encode(na, nout))
                if orbit_of[img] < 0:
                    orbit_of[img] = count
                    stack.append(img)
        count += 1
    return mask_info, orbit_of, count


class _QuotientRows:
    """Accumulates full-space constraint rows projected onto orbit variables.

    Rows of one symmetry orbit project to identical quotient rows, so a
    dedupe by canonical form yields exactly one row per constraint orbit.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple, tuple[dict[int, Fraction], str, Fraction]] = {}

    def add(self, entries: dict[int, Fraction], relation: str, rhs: Fraction) -> None:
        clean = {var: c for var, c in entries.items() if c != 0}
        if not clean:
            return  # the orbit identification already enforces this row
        key = (relation, rhs, tuple(sorted(clean.items())))
        self._rows.setdefault(key, (clean, relation, rhs))

    def to_constraints(self, n_vars: int) -> tuple:
        out = []
        for clean, relation, rhs in self._rows.values():
            row = [_ZERO] * n_vars
            for var, coeff in clean.items():
                row[var] = coeff
            out.append((tuple(row), relation, rhs))
        return tuple(out)


def _project(entries: dict[int, Fraction], orbit_of: list[int]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for idx, coeff in entries.items():
        var = orbit_of[idx]
        out[var] = out.get(var, _ZERO) + coeff
    return out


def _objective(game: Game, orbit_of: list[int], n_orbits: int, extra: int) -> tuple:
    obj = [_ZERO] * (n_orbits + extra)
    n_a = game.n_outputs
    for x in range(game.n_inputs):
        t = game.distribution[x]
        if t == 0:
            continue
        row = x * n_a
        for a in range(n_a):
            if game.predicate[row + a]:
                obj[orbit_of[row + a]] += t
    return tuple(obj)


def _check_cap(game: Game, table_cap: int, what: str) -> None:
    required = game.n_inputs * game.n_outputs
    if required > table_cap:
        raise ResourceLimitError(
            f"{what} needs an LP over a correlation table of {required} entries "
            f"(cap {table_cap})"
        )


def _expand_witness(
    values: tuple[Fraction, ...], orbit_of: list[int], game: Game
) -> Correlation:
    densities = tuple(values[orbit_of[idx]] for idx in range(game.n_inputs * game.n_outputs))
    return Correlation(game.input_alphabets, game.output_alphabets, densities)


def _solved(problem: LpProblem, pivoting: str, what: str) -> LpSolution:
    solution = lp_solve(problem, pivoting=pivoting)
    if solution.status != "optimal":
        raise NsGamesError(f"internal error: the {what} LP reported {solution.status}")
    return solution


def _fixing_last_outputs(group: _Group, output_alphabets: tuple[int, ...]) -> _Group:
    """The subgroup of elements that fix every player's last output symbol.

    Collins-Gisin coordinates leave the last symbol out, so only these
    elements map coordinates to coordinates; they form a subgroup, so
    averaging over it keeps the quotient exact.
    """
    return [
        (sym, px, pa)
        for sym, px, pa in group
        if all(sym.output_perms[i][s - 1] == s - 1 for i, s in enumerate(output_alphabets))
    ]


def _cg_terms(
    x_tup: tuple[int, ...], a_tup: tuple[int, ...], inputs: tuple[int, ...], last: tuple[int, ...]
) -> list[tuple[int, int, int, int]]:
    """P(a|x) in Collins-Gisin coordinates as (mask, x_I, a_I, sign) terms.

    Inclusion-exclusion over the players whose output is their last symbol:
    each such player either drops out of the subset or enters with every
    other symbol at sign -1.  The mask-0 term is the constant 1.
    """
    terms = [(0, 0, 0, 1)]
    for i, (x_i, a_i) in enumerate(zip(x_tup, a_tup)):
        bit, radix = 1 << i, last[i]
        if a_i < radix:
            terms = [(m | bit, xi * inputs[i] + x_i, ai * radix + a_i, c) for m, xi, ai, c in terms]
            continue
        grown = list(terms)
        for m, xi, ai, c in terms:
            xi = xi * inputs[i] + x_i
            grown.extend((m | bit, xi, ai * radix + b, -c) for b in range(radix))
        terms = grown
    return terms


def _ns_forms(
    inputs: tuple[int, ...], outputs: tuple[int, ...], group: _Group, indices: Iterable[int]
) -> tuple[int, list[_Form]]:
    """The Collins-Gisin parametrization of the NS polytope over the alphabets.

    One variable per orbit of coordinates p_I(a_I|x_I) under `group`, which
    must fix every player's last output symbol.  Returns the variable count
    and the affine form of P(a|x) per P-table index (x * n_a + a) in `indices`.
    """
    last = tuple(s - 1 for s in outputs)
    _, var_of, n_vars = _subset_orbits(inputs, group, range(1, 2 ** len(inputs)), last)
    n_a = mr.table_size(outputs)
    forms = []
    for idx in indices:
        x, a = divmod(idx, n_a)
        entries: dict[int, int] = {}
        constant = 0
        x_tup, a_tup = mr.decode(x, inputs), mr.decode(a, outputs)
        for mask, x_i, a_i, sign in _cg_terms(x_tup, a_tup, inputs, last):
            if mask:
                var = var_of[(mask, x_i, a_i)]
                entries[var] = entries.get(var, 0) + sign
            else:
                constant += sign
        forms.append((entries, constant))
    return n_vars, forms


def _ns_nonnegativity(rows: _QuotientRows, forms: list[_Form]) -> None:
    """Add P(a|x) >= 0 as -L(v) <= constant for every form that v >= 0 does
    not already make nonnegative."""
    for entries, constant in forms:
        if any(c < 0 for c in entries.values()):
            rows.add({var: Fraction(-c) for var, c in entries.items()}, "<=", Fraction(constant))


def _ns_point(point: Sequence[Fraction], forms: list[_Form]) -> tuple[Fraction, ...]:
    """The P-table entries of the forms at the coordinate point."""
    return tuple(
        constant + sum((c * point[var] for var, c in entries.items()), _ZERO)
        for entries, constant in forms
    )


def value_ns(
    game: Game,
    *,
    rounds: int = 1,
    use_symmetry: bool = True,
    table_cap: int = DEFAULT_TABLE_CAP,
    pivoting: str = "dantzig-lex",
) -> ValueResult:
    """Exact NS value and an optimal no-signalling witness."""
    _check_cap(game, table_cap, "value_ns")
    group = _fixing_last_outputs(_group_perms(game, rounds, use_symmetry), game.output_alphabets)
    orbit_of, n_orbits = _pair_orbits(game.n_inputs, game.n_outputs, group)
    first: dict[int, int] = {}  # orbit -> its first P-table index
    for idx, orbit in enumerate(orbit_of):
        first.setdefault(orbit, idx)
    n_vars, forms = _ns_forms(game.input_alphabets, game.output_alphabets, group, first.values())

    # one P(a|x) >= 0 row per orbit of (x, a)
    rows = _QuotientRows()
    _ns_nonnegativity(rows, forms)
    objective = [_ZERO] * n_vars
    offset = _ZERO
    for weight, (entries, constant) in zip(_objective(game, orbit_of, n_orbits, 0), forms):
        if weight:
            offset += weight * constant
            for var, c in entries.items():
                objective[var] += weight * c

    if n_vars:
        problem = LpProblem(tuple(objective), rows.to_constraints(n_vars), maximize=True)
        solution = _solved(problem, pivoting, "NS value")
        point, value = solution.witness, solution.value + offset
    else:  # every player has one output: the deterministic point is the polytope
        point, value = (), offset
    strategy = _expand_witness(_ns_point(point, forms), orbit_of, game)
    return _verified(MODEL_NS, value, game, strategy)


def value_snos(
    game: Game,
    *,
    rounds: int = 1,
    use_symmetry: bool = True,
    table_cap: int = DEFAULT_TABLE_CAP,
    pivoting: str = "dantzig-lex",
) -> ValueResult:
    """Exact SNOS value and an optimal sub-no-signalling witness."""
    _check_cap(game, table_cap, "value_snos")
    group = _group_perms(game, rounds, use_symmetry)
    n_x, n_a = game.n_inputs, game.n_outputs
    orbit_of, n_orbits = _pair_orbits(n_x, n_a, group)

    # dominator variables M_I(a_I, x_I), orbit-reduced like the P table
    masks = [subset.mask() for subset in strict_subsets(game.players, include_empty=False)]
    mask_info, m_orbit_of, n_m_orbits = _subset_orbits(
        game.input_alphabets, group, masks, game.output_alphabets
    )

    def m_var(mask: int, x_i: int, a_i: int) -> int:
        return n_orbits + m_orbit_of[(mask, x_i, a_i)]

    rows = _QuotientRows()
    for x in range(n_x):  # empty subset: total mass at most 1 per input
        rows.add(_project({x * n_a + a: _ONE for a in range(n_a)}, orbit_of), "<=", _ONE)
    for mask, (members, in_sizes, out_sizes) in mask_info.items():
        x_proj = mr.project(game.input_alphabets, members)
        n_a_i = mr.table_size(out_sizes)
        out_groups: list[list[int]] = [[] for _ in range(n_a_i)]
        for a, a_i in enumerate(mr.project(game.output_alphabets, members)):
            out_groups[a_i].append(a)
        for x in range(n_x):
            for a_i in range(n_a_i):
                entries = _project(
                    {x * n_a + a: _ONE for a in out_groups[a_i]}, orbit_of
                )
                var = m_var(mask, x_proj[x], a_i)
                entries[var] = entries.get(var, _ZERO) - _ONE
                rows.add(entries, "<=", _ZERO)
        for x_i in range(mr.table_size(in_sizes)):
            entries = {}
            for a_i in range(n_a_i):
                var = m_var(mask, x_i, a_i)
                entries[var] = entries.get(var, _ZERO) + _ONE
            rows.add(entries, "<=", _ONE)

    n_vars = n_orbits + n_m_orbits
    problem = LpProblem(
        _objective(game, orbit_of, n_orbits, n_m_orbits),
        rows.to_constraints(n_vars),
        maximize=True,
    )
    solution = _solved(problem, pivoting, "SNOS value")
    strategy = _expand_witness(solution.witness, orbit_of, game)
    return _verified(MODEL_SNOS, solution.value, game, strategy)


def _verified(model: str, value: Fraction, game: Game, strategy: Correlation) -> ValueResult:
    """Defense against LP assembly bugs: cheap exact re-checks of the witness."""
    achieved = winning_probability(game, strategy)
    if achieved != value:
        raise NsGamesError(
            f"internal error: {model} witness wins with {achieved}, LP reported {value}"
        )
    if model == MODEL_NS:
        report = is_ns(strategy, NS_MODE_ALL)
    elif model == MODEL_SNOS:
        report = is_snos(strategy)
    else:
        report = is_ns(strategy, NS_MODE_ALL)  # deterministic strategies are NS
    if not report.member:
        raise NsGamesError(f"internal error: {model} witness failed membership: {report.violation}")
    return ValueResult(model, value, strategy)


def value_classical(game: Game, *, strategy_cap: int = DEFAULT_STRATEGY_CAP) -> ValueResult:
    """Exact classical value by exhaustive deterministic-strategy enumeration.

    Convexity puts the optimum at a deterministic strategy, so enumeration is
    both the computation and an independent oracle.  Ties resolve to the
    lexicographically smallest strategy (players ordered, inputs ordered).
    """
    players = game.players
    counts = [game.output_alphabets[i] ** game.input_alphabets[i] for i in range(players)]
    total = 1
    for c in counts:
        total *= c
    if total > strategy_cap:
        raise ResourceLimitError(
            f"value_classical would enumerate {total} deterministic strategies "
            f"(cap {strategy_cap}); no LP-free bound is available"
        )

    support = [
        (x, game.distribution[x], mr.decode(x, game.input_alphabets))
        for x in range(game.n_inputs)
        if game.distribution[x] != 0
    ]
    tables = [
        list(itertools.product(range(game.output_alphabets[i]), repeat=game.input_alphabets[i]))
        for i in range(players)
    ]
    n_a = game.n_outputs
    out_sizes = game.output_alphabets
    best_value = None
    best_choice = None
    for choice in itertools.product(*tables):
        value = _ZERO
        for x, t, x_tup in support:
            a = mr.encode(tuple(choice[i][x_tup[i]] for i in range(players)), out_sizes)
            if game.predicate[x * n_a + a]:
                value += t
        if best_value is None or value > best_value:
            best_value = value
            best_choice = choice

    densities = [_ZERO] * (game.n_inputs * n_a)
    for x in range(game.n_inputs):
        x_tup = mr.decode(x, game.input_alphabets)
        a = mr.encode(tuple(best_choice[i][x_tup[i]] for i in range(players)), out_sizes)
        densities[x * n_a + a] = _ONE
    strategy = Correlation(game.input_alphabets, game.output_alphabets, tuple(densities))
    return _verified(MODEL_CLASSICAL, best_value, game, strategy)
