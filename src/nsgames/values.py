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
orbit of the group generated by the game's verified symmetries share a single
variable.  Orbits are found by one flood fill over those generators; the group
is never listed, so its size sets no limit.  The NS LP uses only the
generators that fix every player's last output symbol.  Averaging an optimal
solution over the group is again feasible with the same objective, so the
quotient LP has exactly the original optimum; the expanded witness is
re-verified after every solve.  The caller can pass `rounds=n` for games
built by `repeat_game`/`threshold_game` to enable round-permutation
symmetries — candidates are checked exactly against (T, V) before use, so a
wrong hint can only cost speed, never correctness.  `use_symmetry=False`
solves the unreduced LPs.

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


def _generators(game: Game, rounds: int, use_symmetry: bool) -> list[Symmetry]:
    """The verified player and round symmetries, or none without symmetry.

    A `rounds` hint that does not fit the alphabets is refused either way.
    """
    candidates: list[Symmetry] = []
    if rounds > 1:
        base_in = _infer_base_alphabets(game.input_alphabets, rounds, "input")
        base_out = _infer_base_alphabets(game.output_alphabets, rounds, "output")
        candidates = round_permutation_candidates(base_in, base_out, rounds)
    if not use_symmetry:
        return []
    return symmetry_group(game, player_permutation_candidates(game) + candidates)


def _orbits(
    inputs: tuple[int, ...],
    outputs: tuple[int, ...],
    generators: Sequence[Symmetry],
    masks: Sequence[int],
) -> tuple[dict[int, list[int]], int]:
    """Orbit ids of the subset coordinates (I, x_I, a_I), in first-seen seed
    order, under the group the generators generate.

    Player i's coordinate inputs range over `inputs[i]` symbols and its
    outputs over `outputs[i]`; every generator must map those ranges, and the
    set of masks, onto themselves.  Entry x_I * n_a_I + a_I of the list for
    mask I is the orbit id of that coordinate, so the full mask with the full
    output ranges is the P table (x * n_a + a).  Returns those lists and the
    orbit count.
    """
    members = {mask: [i for i in range(len(inputs)) if mask >> i & 1] for mask in masks}
    n_out = {mask: mr.table_size([outputs[i] for i in m]) for mask, m in members.items()}
    ids = {
        mask: [-1] * (mr.table_size([inputs[i] for i in m]) * n_out[mask])
        for mask, m in members.items()
    }
    actions = []  # per generator: mask -> (image mask, input map, output map)
    for sym in generators:
        action = {}
        for mask, m in members.items():
            image, x_map = index_action(sym, m, inputs, sym.input_perms)
            _, a_map = index_action(sym, m, outputs, sym.output_perms)
            action[mask] = (sum(1 << j for j in image), x_map, a_map)
        actions.append(action)

    count = 0
    for mask in masks:
        for seed in range(len(ids[mask])):
            if ids[mask][seed] >= 0:
                continue
            ids[mask][seed] = count
            stack = [(mask, seed)]
            while stack:
                cur_mask, cur = stack.pop()
                x_i, a_i = divmod(cur, n_out[cur_mask])
                for action in actions:
                    img_mask, x_map, a_map = action[cur_mask]
                    img = x_map[x_i] * n_out[img_mask] + a_map[a_i]
                    if ids[img_mask][img] < 0:
                        ids[img_mask][img] = count
                        stack.append((img_mask, img))
            count += 1
    return ids, count


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


def _objective(game: Game, orbit_of: list[int], n_vars: int) -> tuple:
    obj = [_ZERO] * n_vars
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


def _solved(problem: LpProblem, what: str) -> LpSolution:
    solution = lp_solve(problem)
    if solution.status != "optimal":
        raise NsGamesError(f"internal error: the {what} LP reported {solution.status}")
    return solution


def _fixing_last_outputs(
    generators: list[Symmetry], output_alphabets: tuple[int, ...]
) -> list[Symmetry]:
    """The generators that fix every player's last output symbol.

    Collins-Gisin coordinates leave the last symbol out, so only such
    symmetries map coordinates to coordinates.  The subgroup they generate
    may be smaller than the group's stabilizer of the last symbols; averaging
    over any subgroup keeps the quotient exact.
    """
    return [
        sym
        for sym in generators
        if all(sym.output_perms[i][s - 1] == s - 1 for i, s in enumerate(output_alphabets))
    ]


def _cg_terms(
    x_tup: tuple[int, ...], a_tup: tuple[int, ...], inputs: tuple[int, ...], last: tuple[int, ...]
) -> list[tuple[int, int, int]]:
    """P(a|x) in Collins-Gisin coordinates as (mask, x_I * n_a_I + a_I, sign)
    terms, where a_I ranges over n_a_I = prod(last[i] for i in I) values.

    Inclusion-exclusion over the players whose output is their last symbol:
    each such player either drops out of the subset or enters with every
    other symbol at sign -1.  The mask-0 term is the constant 1.
    """
    terms = [(0, 0, 0, 1, 1)]  # (mask, x_I, a_I, n_a_I, sign)
    for i, (x_i, a_i) in enumerate(zip(x_tup, a_tup)):
        bit, radix = 1 << i, last[i]
        if a_i < radix:
            terms = [
                (m | bit, xi * inputs[i] + x_i, ai * radix + a_i, n * radix, c)
                for m, xi, ai, n, c in terms
            ]
            continue
        grown = list(terms)
        for m, xi, ai, n, c in terms:
            xi = xi * inputs[i] + x_i
            grown.extend((m | bit, xi, ai * radix + b, n * radix, -c) for b in range(radix))
        terms = grown
    return [(m, xi * n + ai, c) for m, xi, ai, n, c in terms]


def _ns_forms(
    inputs: tuple[int, ...],
    outputs: tuple[int, ...],
    generators: Sequence[Symmetry],
    indices: Iterable[int],
) -> tuple[int, list[_Form]]:
    """The Collins-Gisin parametrization of the NS polytope over the alphabets.

    One variable per orbit of coordinates p_I(a_I|x_I) under the generators,
    which must fix every player's last output symbol.  Returns the variable
    count and the affine form of P(a|x) per P-table index (x * n_a + a) in
    `indices`.
    """
    last = tuple(s - 1 for s in outputs)
    var_of, n_vars = _orbits(inputs, last, generators, range(1, 2 ** len(inputs)))
    n_a = mr.table_size(outputs)
    forms = []
    for idx in indices:
        x, a = divmod(idx, n_a)
        entries: dict[int, int] = {}
        constant = 0
        x_tup, a_tup = mr.decode(x, inputs), mr.decode(a, outputs)
        for mask, coord, sign in _cg_terms(x_tup, a_tup, inputs, last):
            if mask:
                var = var_of[mask][coord]
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
) -> ValueResult:
    """Exact NS value and an optimal no-signalling witness."""
    _check_cap(game, table_cap, "value_ns")
    inputs, outputs = game.input_alphabets, game.output_alphabets
    generators = _fixing_last_outputs(_generators(game, rounds, use_symmetry), outputs)
    full = 2**game.players - 1
    p_ids, n_orbits = _orbits(inputs, outputs, generators, [full])
    orbit_of = p_ids[full]
    first: dict[int, int] = {}  # orbit -> its first P-table index
    for idx, orbit in enumerate(orbit_of):
        first.setdefault(orbit, idx)
    n_vars, forms = _ns_forms(inputs, outputs, generators, first.values())

    # one P(a|x) >= 0 row per orbit of (x, a)
    rows = _QuotientRows()
    _ns_nonnegativity(rows, forms)
    objective = [_ZERO] * n_vars
    offset = _ZERO
    for weight, (entries, constant) in zip(_objective(game, orbit_of, n_orbits), forms):
        if weight:
            offset += weight * constant
            for var, c in entries.items():
                objective[var] += weight * c

    if n_vars:
        problem = LpProblem(tuple(objective), rows.to_constraints(n_vars), maximize=True)
        solution = _solved(problem, "NS value")
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
) -> ValueResult:
    """Exact SNOS value and an optimal sub-no-signalling witness."""
    _check_cap(game, table_cap, "value_snos")
    inputs, outputs = game.input_alphabets, game.output_alphabets
    n_x, n_a = game.n_inputs, game.n_outputs
    # the P table is the full mask; the dominators M_I(a_I, x_I) are the strict
    # ones, whose orbits never meet the P table's, so they follow its ids
    subsets = strict_subsets(game.players, include_empty=False)
    full = 2**game.players - 1
    masks = [full] + [subset.mask() for subset in subsets]
    ids, n_vars = _orbits(inputs, outputs, _generators(game, rounds, use_symmetry), masks)
    orbit_of = ids[full]

    rows = _QuotientRows()
    for x in range(n_x):  # empty subset: total mass at most 1 per input
        rows.add(_project({x * n_a + a: _ONE for a in range(n_a)}, orbit_of), "<=", _ONE)
    for subset in subsets:
        m_of = ids[subset.mask()]
        x_proj = mr.project(inputs, subset.members)
        n_a_i = mr.table_size([outputs[i] for i in subset.members])
        out_groups: list[list[int]] = [[] for _ in range(n_a_i)]
        for a, a_i in enumerate(mr.project(outputs, subset.members)):
            out_groups[a_i].append(a)
        for x in range(n_x):
            for a_i in range(n_a_i):
                entries = _project(
                    {x * n_a + a: _ONE for a in out_groups[a_i]}, orbit_of
                )
                var = m_of[x_proj[x] * n_a_i + a_i]
                entries[var] = entries.get(var, _ZERO) - _ONE
                rows.add(entries, "<=", _ZERO)
        for x_i in range(mr.table_size([inputs[i] for i in subset.members])):
            entries = {}
            for a_i in range(n_a_i):
                var = m_of[x_i * n_a_i + a_i]
                entries[var] = entries.get(var, _ZERO) + _ONE
            rows.add(entries, "<=", _ONE)

    problem = LpProblem(
        _objective(game, orbit_of, n_vars),
        rows.to_constraints(n_vars),
        maximize=True,
    )
    solution = _solved(problem, "SNOS value")
    strategy = _expand_witness(solution.witness, orbit_of, game)
    return _verified(MODEL_SNOS, solution.value, game, strategy)


def _verified(model: str, value: Fraction, game: Game, strategy: Correlation) -> ValueResult:
    """Defense against LP assembly bugs: cheap exact re-checks of the witness."""
    achieved = winning_probability(game, strategy)
    if achieved != value:
        raise NsGamesError(
            f"internal error: {model} witness wins with {achieved}, LP reported {value}"
        )
    # deterministic (classical) strategies are NS
    report = is_snos(strategy) if model == MODEL_SNOS else is_ns(strategy, NS_MODE_ALL)
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
