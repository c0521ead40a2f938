"""Symmetries of a game and orbit maps for symmetry-reduced LP assembly.

A symmetry simultaneously relabels players and permutes each player's
alphabets so that the query distribution and predicate are left invariant.
Because the NS/SNOS value LPs are convex and closed under every game
symmetry, each orbit of correlation entries can share one LP variable without
changing the optimum; the quotient LPs are dramatically smaller for repeated
games (round permutations) and for player-symmetric games.

Every candidate symmetry handed to `symmetry_group` is *checked exactly*
against (T, V) before being used, so callers can pass optimistic candidates:
an invalid one is simply rejected.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from . import _mixedradix as mr
from .errors import ResourceLimitError
from .game_model import Game

#: cap on the closure computation; a larger group raises ResourceLimitError
_GROUP_CAP = 20000


@dataclass(frozen=True)
class Symmetry:
    """(sigma, pi, rho): old player i moves to slot sigma[i], its input value
    v becomes pi[i][v] and its output value a becomes rho[i][a]."""

    player_perm: tuple[int, ...]
    input_perms: tuple[tuple[int, ...], ...]
    output_perms: tuple[tuple[int, ...], ...]

    def key(self) -> tuple:
        return (self.player_perm, self.input_perms, self.output_perms)


def identity_symmetry(inputs: Sequence[int], outputs: Sequence[int]) -> Symmetry:
    return Symmetry(
        tuple(range(len(inputs))),
        tuple(tuple(range(s)) for s in inputs),
        tuple(tuple(range(s)) for s in outputs),
    )


def compose(second: Symmetry, first: Symmetry) -> Symmetry:
    """The symmetry applying `first`, then `second`."""
    players = len(first.player_perm)
    sigma = tuple(second.player_perm[first.player_perm[i]] for i in range(players))
    in_perms = []
    out_perms = []
    for i in range(players):
        j = first.player_perm[i]
        in_perms.append(tuple(second.input_perms[j][v] for v in first.input_perms[i]))
        out_perms.append(tuple(second.output_perms[j][v] for v in first.output_perms[i]))
    return Symmetry(sigma, tuple(in_perms), tuple(out_perms))


def index_action(
    sym: Symmetry, sizes: tuple[int, ...], perms: tuple[tuple[int, ...], ...]
) -> list[int]:
    """Permutation of joint mixed-radix indices induced by the symmetry."""
    players = len(sizes)
    sigma = sym.player_perm
    new_sizes = [0] * players
    for i in range(players):
        new_sizes[sigma[i]] = sizes[i]
    if tuple(new_sizes) != tuple(sizes):
        raise ValueError("symmetry does not preserve the alphabet layout")
    out = []
    for idx in range(mr.table_size(sizes)):
        tup = mr.decode(idx, sizes)
        new_tup = [0] * players
        for i in range(players):
            new_tup[sigma[i]] = perms[i][tup[i]]
        out.append(mr.encode(tuple(new_tup), sizes))
    return out


def preserves_game(game: Game, sym: Symmetry) -> bool:
    """Exact invariance check of (T, V) under the symmetry."""
    try:
        x_perm = index_action(sym, game.input_alphabets, sym.input_perms)
        a_perm = index_action(sym, game.output_alphabets, sym.output_perms)
    except ValueError:
        return False
    dist, pred = game.distribution, game.predicate
    n_a = game.n_outputs
    for x in range(game.n_inputs):
        if dist[x_perm[x]] != dist[x]:
            return False
    for x in range(game.n_inputs):
        row, prow = x * n_a, x_perm[x] * n_a
        for a in range(n_a):
            if pred[prow + a_perm[a]] != pred[row + a]:
                return False
    return True


def player_permutation_candidates(game: Game) -> list[Symmetry]:
    """All non-identity pure player relabelings compatible with the alphabets."""
    players = game.players
    if players > 5:  # 6! invariance checks stop being cheap; symmetry is optional
        return []
    out = []
    for sigma in itertools.permutations(range(players)):
        if sigma == tuple(range(players)):
            continue
        ok = all(
            game.input_alphabets[sigma[i]] == game.input_alphabets[i]
            and game.output_alphabets[sigma[i]] == game.output_alphabets[i]
            for i in range(players)
        )
        if ok:
            out.append(
                Symmetry(
                    sigma,
                    tuple(tuple(range(s)) for s in game.input_alphabets),
                    tuple(tuple(range(s)) for s in game.output_alphabets),
                )
            )
    return out


def round_permutation_candidates(
    base_inputs: tuple[int, ...], base_outputs: tuple[int, ...], rounds: int
) -> list[Symmetry]:
    """Generators of the round permutations of an n-fold product alphabet.

    Player i's product symbol encodes its per-round values with the last
    round fastest; each round permutation rho acts as new_round[k] =
    old_round[rho[k]] simultaneously on every player's inputs and outputs.
    Only the n - 1 adjacent transpositions are returned: they generate every
    round permutation, and handing all n! - 1 of them to `symmetry_group`
    would make its closure cost O(n!^2).
    """
    players = len(base_inputs)
    candidates = []
    for k in range(rounds - 1):
        rho = (*range(k), k + 1, k, *range(k + 2, rounds))
        candidates.append(
            Symmetry(
                tuple(range(players)),
                tuple(mr.project((base,) * rounds, rho) for base in base_inputs),
                tuple(mr.project((base,) * rounds, rho) for base in base_outputs),
            )
        )
    return candidates


def symmetry_group(game: Game, candidates: Sequence[Symmetry]) -> list[Symmetry]:
    """Closure of the exactly-verified candidates under composition.

    The identity comes first; the remaining order is the deterministic BFS
    order of the closure.
    """
    identity = identity_symmetry(game.input_alphabets, game.output_alphabets)
    generators = [sym for sym in candidates if preserves_game(game, sym)]
    group = {identity.key(): identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for sym in frontier:
            for gen in generators:
                nxt = compose(gen, sym)
                if nxt.key() not in group:
                    group[nxt.key()] = nxt
                    new_frontier.append(nxt)
                    if len(group) > _GROUP_CAP:
                        raise ResourceLimitError(
                            f"the symmetry group has more than {_GROUP_CAP} elements"
                        )
        frontier = new_frontier
    ordered = [identity] + [sym for key, sym in sorted(group.items()) if sym != identity]
    return ordered


def subset_action(
    sym: Symmetry,
    members: tuple[int, ...],
    a_i: tuple[int, ...],
    x_i: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Image of (I, a_I, x_I) under the symmetry; tuples follow sorted members."""
    sigma = sym.player_perm
    mapped = {}
    for pos, i in enumerate(members):
        mapped[sigma[i]] = (sym.output_perms[i][a_i[pos]], sym.input_perms[i][x_i[pos]])
    new_members = tuple(sorted(mapped))
    new_a = tuple(mapped[i][0] for i in new_members)
    new_x = tuple(mapped[i][1] for i in new_members)
    return new_members, new_a, new_x
