"""Symmetries of a game and their action on table indices, for
symmetry-reduced LP assembly.

A symmetry simultaneously relabels players and permutes each player's
alphabets so that the query distribution and predicate are left invariant.
Because the NS/SNOS value LPs are convex and closed under every game
symmetry, each orbit of correlation entries can share one LP variable without
changing the optimum; the quotient LPs are dramatically smaller for repeated
games (round permutations) and for player-symmetric games.

Every candidate symmetry handed to `symmetry_group` is *checked exactly*
against (T, V) before being used, so callers can pass optimistic candidates:
an invalid one is simply rejected.  The group itself is never enumerated:
the verified candidates are its generators, and an orbit under a finite
group is a connected component under its generators, so one flood fill over
the generators finds every orbit.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from . import _mixedradix as mr
from .game_model import Game


@dataclass(frozen=True)
class Symmetry:
    """(sigma, pi, rho): old player i moves to slot sigma[i], its input value
    v becomes pi[i][v] and its output value a becomes rho[i][a]."""

    player_perm: tuple[int, ...]
    input_perms: tuple[tuple[int, ...], ...]
    output_perms: tuple[tuple[int, ...], ...]


def index_action(
    sym: Symmetry,
    members: Sequence[int],
    sizes: Sequence[int],
    perms: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], list[int]]:
    """Where the symmetry sends each joint index over the members' symbols.

    Player i has `sizes[i]` symbols, relabelled by `perms[i]`; joint indices
    list the members in increasing order, the last fastest.  Returns the
    image members, sorted, and the image of every joint index as a joint
    index over them.  The symmetry must map each member's symbol range onto
    its image player's.
    """
    sigma = sym.player_perm
    image = tuple(sorted(sigma[i] for i in members))
    weight = {}
    stride = 1
    for j in reversed(image):
        weight[j] = stride
        stride *= sizes[j]
    out = [0]
    for i in members:
        w, perm = weight[sigma[i]], perms[i]
        out = [base + perm[digit] * w for base in out for digit in range(sizes[i])]
    return image, out


def preserves_game(game: Game, sym: Symmetry) -> bool:
    """Exact invariance check of (T, V) under the symmetry."""
    sigma = sym.player_perm
    players = range(game.players)
    for sizes in (game.input_alphabets, game.output_alphabets):
        if any(sizes[sigma[i]] != sizes[i] for i in players):
            return False
    _, x_perm = index_action(sym, players, game.input_alphabets, sym.input_perms)
    _, a_perm = index_action(sym, players, game.output_alphabets, sym.output_perms)
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
    round permutation, so their orbits are those of the whole round group.
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
    """Generators of the game's symmetry group used for the quotient LPs:
    the candidates that pass `preserves_game`, in candidate order.

    The group they generate is never enumerated; orbits are found by a flood
    fill over these generators.
    """
    return [sym for sym in candidates if preserves_game(game, sym)]
