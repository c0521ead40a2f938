"""Core data model: games, correlations, and their compositions.

Conventions
-----------
An l-player game consists of input alphabets X_1..X_l, output alphabets
A_1..A_l, an exact query distribution T over the joint inputs and a 0/1
predicate V over (outputs, inputs).  Alphabets are ranges ``0..size-1``;
player indices are 0-based.

All tables are dense, row-major, mixed-radix encoded (see `_mixedradix`):

* ``distribution[x]`` with ``x`` the joint-input index (last player fastest),
* ``predicate[x * n_outputs + a]`` — joint-input major, joint-output minor,
* ``Correlation.densities`` uses the same ``(x, a)`` layout.

Correlations hold conditional (sub-)densities ``P(a|x) >= 0``; no
normalization is imposed here — whether a table is no-signalling or
sub-no-signalling is decided by the `polytopes` module.

For a repeated game, player i's alphabet is the n-fold product of its base
alphabet, encoded with the last round fastest.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import _mixedradix as mr
from .errors import DomainError, ResourceLimitError, ShapeError
from .rationals import format_rational, parse_rational

#: Default cap on dense table entries created by game compositions.
DEFAULT_TABLE_CAP = 10**7

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _check_alphabets(name: str, sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ShapeError(f"{name}: at least one player is required")
    if any(s < 1 for s in sizes):
        raise ShapeError(f"{name}: alphabet sizes must be positive, got {sizes}")
    return sizes


class _Alphabets:
    """Player and joint-alphabet counts of a frozen dataclass with fields
    `input_alphabets` and `output_alphabets`, and their checks."""

    input_alphabets: tuple[int, ...]
    output_alphabets: tuple[int, ...]

    def _check_shape(self) -> None:
        inputs = _check_alphabets("input_alphabets", self.input_alphabets)
        outputs = _check_alphabets("output_alphabets", self.output_alphabets)
        if len(inputs) != len(outputs):
            raise ShapeError("player counts of input and output alphabets differ")
        object.__setattr__(self, "input_alphabets", inputs)
        object.__setattr__(self, "output_alphabets", outputs)

    def _check_table(self, name: str, unit: str, negative: str) -> None:
        """Check the alphabets, then make field `name` a non-negative tuple of
        Fractions over (x, a), x major."""
        self._check_shape()
        values = tuple(Fraction(v) for v in getattr(self, name))
        expected = self.n_inputs * self.n_outputs
        if len(values) != expected:
            raise ShapeError(f"{name} has {len(values)} {unit}, expected {expected}")
        if any(v < 0 for v in values):
            raise DomainError(negative)
        object.__setattr__(self, name, values)

    @property
    def players(self) -> int:
        return len(self.input_alphabets)

    @property
    def n_inputs(self) -> int:
        return mr.table_size(self.input_alphabets)

    @property
    def n_outputs(self) -> int:
        return mr.table_size(self.output_alphabets)


@dataclass(frozen=True)
class Game(_Alphabets):
    """An l-player game (T, V) over finite input/output alphabets.

    Invariants, enforced on construction: T sums to exactly 1 with
    non-negative entries, the predicate is 0/1 valued, and both tables have
    exactly the sizes implied by the alphabet products.
    """

    input_alphabets: tuple[int, ...]
    output_alphabets: tuple[int, ...]
    distribution: tuple[Fraction, ...]
    predicate: tuple[int, ...]

    def __post_init__(self) -> None:
        self._check_shape()
        object.__setattr__(self, "distribution", tuple(Fraction(t) for t in self.distribution))
        object.__setattr__(self, "predicate", tuple(int(v) for v in self.predicate))

        n_x, n_a = self.n_inputs, self.n_outputs
        if len(self.distribution) != n_x:
            raise ShapeError(f"distribution has {len(self.distribution)} entries, expected {n_x}")
        if len(self.predicate) != n_x * n_a:
            raise ShapeError(f"predicate has {len(self.predicate)} entries, expected {n_x * n_a}")
        if any(t < 0 for t in self.distribution):
            raise DomainError("distribution entries must be non-negative")
        total = sum(self.distribution, _ZERO)
        if total != 1:
            raise DomainError(f"distribution must sum to exactly 1, got {total}")
        if any(v not in (0, 1) for v in self.predicate):
            raise DomainError("predicate entries must be 0 or 1")

    def query_weight(self, x_index: int) -> Fraction:
        return self.distribution[x_index]

    def accepts(self, x_index: int, a_index: int) -> int:
        return self.predicate[x_index * self.n_outputs + a_index]

    def has_full_support(self) -> bool:
        return all(t > 0 for t in self.distribution)


@dataclass(frozen=True)
class Correlation(_Alphabets):
    """Conditional (sub-)density table ``P(a|x) >= 0`` over matching alphabets."""

    input_alphabets: tuple[int, ...]
    output_alphabets: tuple[int, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # Negative entries are representable (membership reports locate them),
        # but plain construction rejects them: they are never meaningful here.
        self._check_table("densities", "entries", "densities must be non-negative")

    def density(self, x_index: int, a_index: int) -> Fraction:
        return self.densities[x_index * self.n_outputs + a_index]

    def row(self, x_index: int) -> tuple[Fraction, ...]:
        n_a = self.n_outputs
        return self.densities[x_index * n_a : (x_index + 1) * n_a]

    def mass(self, x_index: int) -> Fraction:
        return sum(self.row(x_index), _ZERO)


@dataclass(frozen=True)
class JointDistribution(_Alphabets):
    """A joint (sub-)distribution Q(a, x) over outputs x inputs, same layout."""

    input_alphabets: tuple[int, ...]
    output_alphabets: tuple[int, ...]
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        self._check_table("entries", "values", "joint distribution entries must be non-negative")

    def value(self, x_index: int, a_index: int) -> Fraction:
        return self.entries[x_index * self.n_outputs + a_index]

    def total(self) -> Fraction:
        return sum(self.entries, _ZERO)

    def is_normalized(self) -> bool:
        return self.total() == 1

    def input_marginal(self) -> tuple[Fraction, ...]:
        n_a = self.n_outputs
        return tuple(
            sum(self.entries[x * n_a : (x + 1) * n_a], _ZERO) for x in range(self.n_inputs)
        )


@dataclass(frozen=True)
class SubsetIndex:
    """A strict subset I of the player set {0, .., players-1}, kept sorted."""

    players: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.players < 1:
            raise ShapeError("players must be positive")
        members = tuple(sorted(set(int(i) for i in self.members)))
        object.__setattr__(self, "members", members)
        if any(i < 0 or i >= self.players for i in members):
            raise DomainError(f"subset members out of range for {self.players} players: {members}")
        if len(members) == self.players:
            raise DomainError("subset must be a strict subset of the player set")

    @property
    def is_empty(self) -> bool:
        return not self.members

    def complement(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(i for i in range(self.players) if i not in inside)

    @staticmethod
    def from_mask(players: int, mask: int) -> "SubsetIndex":
        return SubsetIndex(players, tuple(i for i in range(players) if mask >> i & 1))

    def mask(self) -> int:
        return sum(1 << i for i in self.members)


def strict_subsets(players: int, *, include_empty: bool = True) -> list[SubsetIndex]:
    """All strict subsets of the player set, in ascending bitmask order."""
    start = 0 if include_empty else 1
    return [SubsetIndex.from_mask(players, m) for m in range(start, 2**players - 1)]


def singles_complement_subsets(players: int) -> list[SubsetIndex]:
    """The subsets {0,..,l-1} \\ {i}, one per player i (ascending i)."""
    return [
        SubsetIndex(players, tuple(j for j in range(players) if j != i)) for i in range(players)
    ]


@dataclass(frozen=True)
class MarginalTable:
    """The marginal P(a_I | x) of a correlation: full-input major, a_I minor."""

    subset: SubsetIndex
    input_alphabets: tuple[int, ...]
    subset_outputs: tuple[int, ...]
    entries: tuple[Fraction, ...]

    @property
    def n_inputs(self) -> int:
        return mr.table_size(self.input_alphabets)

    @property
    def n_subset_outputs(self) -> int:
        return mr.table_size(self.subset_outputs)

    def value(self, x_index: int, a_i_index: int) -> Fraction:
        return self.entries[x_index * self.n_subset_outputs + a_i_index]


def _same_shape(game_or_corr_a, b) -> bool:
    return (
        game_or_corr_a.input_alphabets == b.input_alphabets
        and game_or_corr_a.output_alphabets == b.output_alphabets
    )


def winning_probability(game: Game, correlation: Correlation) -> Fraction:
    """Exact winning probability  sum_x T(x) sum_a V(a,x) P(a|x)."""
    if not _same_shape(game, correlation):
        raise ShapeError("game and correlation alphabets do not match")
    n_a = game.n_outputs
    total = _ZERO
    for x in range(game.n_inputs):
        t = game.distribution[x]
        if t == 0:
            continue
        base = x * n_a
        acc = _ZERO
        for a in range(n_a):
            if game.predicate[base + a]:
                acc += correlation.densities[base + a]
        total += t * acc
    return total


def _round_maps(
    base_inputs: tuple[int, ...], base_outputs: tuple[int, ...], rounds: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index maps from per-round base indices to repeated joint indices.

    Returns (rep_inputs, rep_outputs, x_map, a_map) where for a tuple
    (j_1..j_n) of base joint-input indices, the repeated joint-input index is
    ``x_map`` applied to the mixed-radix encoding of the tuple (analogously
    for outputs).  Digit ``k*players + i`` of that encoding is player i's
    symbol in round k; the repeated index lists them player-major.
    """
    players = len(base_inputs)
    per_player = [k * players + i for i in range(players) for k in range(rounds)]
    return (
        tuple(s**rounds for s in base_inputs),
        tuple(s**rounds for s in base_outputs),
        mr.project(base_inputs * rounds, per_player),
        mr.project(base_outputs * rounds, per_player),
    )


def repeat_game(game: Game, rounds: int, *, table_cap: int = DEFAULT_TABLE_CAP) -> Game:
    """The game played `rounds` times in parallel: product T and product V.

    Player i's repeated alphabet is the `rounds`-fold product of its base
    alphabet (last round fastest).  Raises ResourceLimitError naming the
    required predicate size when it would exceed `table_cap` entries.
    """
    if rounds < 1:
        raise DomainError("rounds must be a positive integer")
    if rounds == 1:
        return game
    required = (game.n_inputs * game.n_outputs) ** rounds
    if required > table_cap:
        raise ResourceLimitError(
            f"repeat_game would allocate a predicate table of {required} entries "
            f"(cap {table_cap})"
        )
    return _build_repeated(game, rounds, threshold=None)


def threshold_game(
    game: Game, threshold: int, rounds: int, *, table_cap: int = DEFAULT_TABLE_CAP
) -> Game:
    """The game won by winning at least `threshold` of `rounds` parallel rounds."""
    if rounds < 1:
        raise DomainError("rounds must be a positive integer")
    if not 0 <= threshold <= rounds:
        raise DomainError(f"threshold must lie in [0, {rounds}], got {threshold}")
    required = (game.n_inputs * game.n_outputs) ** rounds
    if required > table_cap:
        raise ResourceLimitError(
            f"threshold_game would allocate a predicate table of {required} entries "
            f"(cap {table_cap})"
        )
    return _build_repeated(game, rounds, threshold=threshold)


def _build_repeated(game: Game, rounds: int, threshold: int | None) -> Game:
    rep_inputs, rep_outputs, x_map, a_map = _round_maps(
        game.input_alphabets, game.output_alphabets, rounds
    )
    n_x, n_a = game.n_inputs, game.n_outputs
    n_x_rep, n_a_rep = n_x**rounds, n_a**rounds

    distribution: list[Fraction] = [_ZERO] * n_x_rep
    x_rounds: list[tuple[int, ...]] = [()] * n_x_rep
    for combo in range(n_x_rep):
        rounds_idx = mr.decode(combo, (n_x,) * rounds)
        weight = _ONE
        for j in rounds_idx:
            weight *= game.distribution[j]
        distribution[x_map[combo]] = weight
        x_rounds[x_map[combo]] = rounds_idx

    a_rounds: list[tuple[int, ...]] = [()] * n_a_rep
    for combo in range(n_a_rep):
        a_rounds[a_map[combo]] = mr.decode(combo, (n_a,) * rounds)

    predicate = [0] * (n_x_rep * n_a_rep)
    pred = game.predicate
    for x_rep in range(n_x_rep):
        xs = x_rounds[x_rep]
        base = x_rep * n_a_rep
        for a_rep in range(n_a_rep):
            wins = 0
            for j, a in zip(xs, a_rounds[a_rep]):
                wins += pred[j * n_a + a]
            if threshold is None:
                predicate[base + a_rep] = 1 if wins == rounds else 0
            else:
                predicate[base + a_rep] = 1 if wins >= threshold else 0
    return Game(rep_inputs, rep_outputs, tuple(distribution), tuple(predicate))


def tensor_power(correlation: Correlation, rounds: int) -> Correlation:
    """The product strategy playing `correlation` independently in each round."""
    if rounds < 1:
        raise DomainError("rounds must be a positive integer")
    if rounds == 1:
        return correlation
    rep_inputs, rep_outputs, x_map, a_map = _round_maps(
        correlation.input_alphabets, correlation.output_alphabets, rounds
    )
    n_x, n_a = correlation.n_inputs, correlation.n_outputs
    n_x_rep, n_a_rep = n_x**rounds, n_a**rounds
    dens = correlation.densities

    densities = [_ZERO] * (n_x_rep * n_a_rep)
    x_rounds = [mr.decode(c, (n_x,) * rounds) for c in range(n_x_rep)]
    a_rounds = [mr.decode(c, (n_a,) * rounds) for c in range(n_a_rep)]
    for cx in range(n_x_rep):
        xs = x_rounds[cx]
        row_base = x_map[cx] * n_a_rep
        for ca in range(n_a_rep):
            value = _ONE
            for j, a in zip(xs, a_rounds[ca]):
                value *= dens[j * n_a + a]
                if value == 0:
                    break
            densities[row_base + a_map[ca]] = value
    return Correlation(rep_inputs, rep_outputs, tuple(densities))


def _infer_base_alphabets(sizes: tuple[int, ...], rounds: int, what: str) -> tuple[int, ...]:
    base = []
    for size in sizes:
        root = mr.integer_nth_root(size, rounds)
        if root is None:
            raise ShapeError(
                f"{what} alphabet of size {size} is not an exact {rounds}-fold product"
            )
        base.append(root)
    return tuple(base)


def symmetrize(correlation: Correlation, rounds: int) -> Correlation:
    """Average of the correlation over all simultaneous round permutations.

    The correlation's alphabets must be `rounds`-fold products of a base
    alphabet (inferred via exact integer roots).  The result is invariant
    under every round permutation and achieves the same winning probability
    on any `rounds`-fold repeated or threshold game.
    """
    if rounds < 1:
        raise DomainError("rounds must be a positive integer")
    if rounds == 1:
        return correlation
    base_inputs = _infer_base_alphabets(correlation.input_alphabets, rounds, "input")
    base_outputs = _infer_base_alphabets(correlation.output_alphabets, rounds, "output")
    n_x, n_a = correlation.n_inputs, correlation.n_outputs
    # a joint index is the mixed-radix number of its per-player, per-round
    # digits (player major); a round permutation reorders each player's digits
    x_digits = tuple(b for b in base_inputs for _ in range(rounds))
    a_digits = tuple(b for b in base_outputs for _ in range(rounds))

    perms = list(itertools.permutations(range(rounds)))
    weight = Fraction(1, len(perms))
    dens = correlation.densities
    out = [_ZERO] * len(dens)
    for pi in perms:
        positions = [i * rounds + pi[k] for i in range(correlation.players) for k in range(rounds)]
        px = mr.project(x_digits, positions)
        pa = mr.project(a_digits, positions)
        for x in range(n_x):
            row = px[x] * n_a
            for a in range(n_a):
                out[x * n_a + a] += dens[row + pa[a]]
    return Correlation(
        correlation.input_alphabets,
        correlation.output_alphabets,
        tuple(v * weight for v in out),
    )


def marginal(correlation: Correlation, subset: SubsetIndex) -> MarginalTable:
    """The marginal table P(a_I | x), summing outputs outside I.

    I may be empty, in which case the table holds the total mass per input.
    """
    if subset.players != correlation.players:
        raise ShapeError("subset declared for a different player count")
    outputs = correlation.output_alphabets
    entries = _subset_sums(correlation.densities, outputs, subset.members)
    out_sizes = tuple(outputs[i] for i in subset.members)
    return MarginalTable(subset, correlation.input_alphabets, out_sizes, tuple(entries))


def _subset_sums(
    entries: Sequence[Fraction], outputs: Sequence[int], members: Sequence[int]
) -> list[Fraction]:
    """Sum an (x, a) table, x major, over the outputs of the players outside
    `members`: the result is over (x, a_I), x major.  Zero entries are skipped."""
    proj = mr.project(outputs, members)
    n_a, n_a_i = len(proj), mr.table_size([outputs[i] for i in members])
    out = [_ZERO] * (len(entries) // n_a * n_a_i)
    for row in range(0, len(entries), n_a):
        out_row = row // n_a * n_a_i
        for a, v in enumerate(entries[row : row + n_a]):
            if v:
                out[out_row + proj[a]] += v
    return out


def permute_players(game: Game, sigma: Sequence[int]) -> Game:
    """Relabel players: old player i becomes player sigma[i] of the result."""
    # T is a table over x with one output, V a 0/1 table in the (x, a) layout
    query = permute_players_correlation(
        Correlation(game.input_alphabets, (1,) * game.players, game.distribution), sigma
    )
    predicate = permute_players_correlation(
        Correlation(game.input_alphabets, game.output_alphabets, game.predicate), sigma
    )
    return Game(
        predicate.input_alphabets, predicate.output_alphabets, query.densities, predicate.densities
    )


def permute_players_correlation(correlation: Correlation, sigma: Sequence[int]) -> Correlation:
    """Relabel players: old player i becomes player sigma[i] of the result."""
    players = correlation.players
    if sorted(sigma) != list(range(players)):
        raise DomainError(f"sigma must be a permutation of 0..{players - 1}")
    new_inputs = [0] * players
    new_outputs = [0] * players
    for i in range(players):
        new_inputs[sigma[i]] = correlation.input_alphabets[i]
        new_outputs[sigma[i]] = correlation.output_alphabets[i]
    # new slot sigma[i] holds old component i: pull each new index back
    x_back = mr.project(new_inputs, sigma)
    a_back = mr.project(new_outputs, sigma)
    n_a = len(a_back)
    dens = correlation.densities
    densities = tuple(dens[x * n_a + a] for x in x_back for a in a_back)
    return Correlation(tuple(new_inputs), tuple(new_outputs), densities)


# --- JSON wire format ------------------------------------------------------
#
# Game files:  {"players": l, "inputs": [..], "outputs": [..],
#               "distribution": ["p/q", ..],      # joint-input order
#               "predicate": [0/1, ..]}           # (a, x) order, a fastest
# Correlation files replace distribution/predicate with
#               "densities": ["p/q", ..]          # same (a fastest) order


def game_to_json_dict(game: Game) -> dict:
    return {
        "players": game.players,
        "inputs": list(game.input_alphabets),
        "outputs": list(game.output_alphabets),
        "distribution": [format_rational(t) for t in game.distribution],
        "predicate": list(game.predicate),
    }


def game_from_json_dict(data: dict) -> Game:
    _require_keys(data, ("players", "inputs", "outputs", "distribution", "predicate"), "game")
    players = _json_int(data["players"], "players")
    inputs = _json_ints(data["inputs"], "inputs")
    outputs = _json_ints(data["outputs"], "outputs")
    if len(inputs) != players or len(outputs) != players:
        raise ShapeError(
            f"game: 'players'={players} but inputs/outputs list "
            f"{len(inputs)}/{len(outputs)} alphabets"
        )
    distribution = _parse_rational_array(data["distribution"], "distribution")
    predicate = _json_ints(data["predicate"], "predicate")
    return Game(inputs, outputs, distribution, predicate)


def correlation_to_json_dict(correlation: Correlation) -> dict:
    return {
        "players": correlation.players,
        "inputs": list(correlation.input_alphabets),
        "outputs": list(correlation.output_alphabets),
        "densities": [format_rational(p) for p in correlation.densities],
    }


def correlation_from_json_dict(data: dict) -> Correlation:
    _require_keys(data, ("players", "inputs", "outputs", "densities"), "correlation")
    players = _json_int(data["players"], "players")
    inputs = _json_ints(data["inputs"], "inputs")
    outputs = _json_ints(data["outputs"], "outputs")
    if len(inputs) != players or len(outputs) != players:
        raise ShapeError(
            f"correlation: 'players'={players} but inputs/outputs list "
            f"{len(inputs)}/{len(outputs)} alphabets"
        )
    densities = _parse_rational_array(data["densities"], "densities")
    return Correlation(inputs, outputs, densities)


def _require_keys(data: dict, keys: Iterable[str], what: str) -> None:
    missing = [k for k in keys if k not in data]
    if missing:
        raise ShapeError(f"{what}: missing fields {missing}")


def _json_int(raw, field: str) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or (isinstance(raw, float) and value != raw):
        raise ShapeError(f"{field}: expected an integer, got {raw!r}")
    return value


def _json_ints(raw, field: str) -> tuple[int, ...]:
    _check_json_list(raw, field)
    return tuple(_json_int(v, f"{field}[{pos}]") for pos, v in enumerate(raw))


def _check_json_list(raw, field: str) -> None:
    if not isinstance(raw, (list, tuple)):
        raise ShapeError(f"{field}: expected a list, got {raw!r}")


def _parse_rational_array(values: Sequence, field: str) -> tuple[Fraction, ...]:
    _check_json_list(values, field)
    out = []
    for pos, raw in enumerate(values):
        if isinstance(raw, str):
            try:
                out.append(parse_rational(raw))
            except DomainError as exc:
                raise DomainError(f"{field}[{pos}]: {exc}") from None
        elif isinstance(raw, int) and not isinstance(raw, bool):
            out.append(Fraction(raw))
        else:
            raise DomainError(f"{field}[{pos}]: expected a 'p/q' string, got {raw!r}")
    return tuple(out)
