"""Orbit maps from the enumerated symmetry group, kept as a test oracle.

The package finds orbits by one flood fill over the verified generators and
never lists the group.  This module closes the generators under composition
into the whole group and reads each orbit off as the set of images of its
first coordinate under every element, with its own index arithmetic, so the
two share no code past the `Symmetry` record:

    reference_orbits(inputs, outputs, closure(game, generators), masks)
        == values._orbits(inputs, outputs, generators, masks)
"""

from __future__ import annotations

from nsgames._mixedradix import decode, encode, table_size
from nsgames._symmetry import Symmetry
from nsgames.game_model import Game


def identity(inputs: tuple[int, ...], outputs: tuple[int, ...]) -> Symmetry:
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


def closure(game: Game, generators: list[Symmetry]) -> list[Symmetry]:
    """Every element of the group the generators generate, identity first."""
    group = [identity(game.input_alphabets, game.output_alphabets)]
    seen = set(group)
    frontier = list(group)
    while frontier:
        new_frontier = []
        for sym in frontier:
            for gen in generators:
                nxt = compose(gen, sym)
                if nxt not in seen:
                    seen.add(nxt)
                    group.append(nxt)
                    new_frontier.append(nxt)
        frontier = new_frontier
    return group


def fixing_last_outputs(group: list[Symmetry], outputs: tuple[int, ...]) -> list[Symmetry]:
    """The subgroup of elements that fix every player's last output symbol."""
    return [
        sym
        for sym in group
        if all(sym.output_perms[i][s - 1] == s - 1 for i, s in enumerate(outputs))
    ]


def _image(
    sym: Symmetry,
    mask: int,
    x_i: int,
    a_i: int,
    inputs: tuple[int, ...],
    outputs: tuple[int, ...],
) -> tuple[int, int, int]:
    """Image of the coordinate (mask, x_I, a_I) under the symmetry."""
    members = [i for i in range(len(inputs)) if mask >> i & 1]
    x_tup = decode(x_i, [inputs[i] for i in members])
    a_tup = decode(a_i, [outputs[i] for i in members])
    mapped = {}
    for pos, i in enumerate(members):
        mapped[sym.player_perm[i]] = (sym.input_perms[i][x_tup[pos]], sym.output_perms[i][a_tup[pos]])
    new_members = sorted(mapped)
    new_x = encode([mapped[j][0] for j in new_members], [inputs[j] for j in new_members])
    new_a = encode([mapped[j][1] for j in new_members], [outputs[j] for j in new_members])
    return sum(1 << j for j in new_members), new_x, new_a


def reference_orbits(
    inputs: tuple[int, ...],
    outputs: tuple[int, ...],
    group: list[Symmetry],
    masks: list[int],
) -> tuple[dict[int, list[int]], int]:
    """Orbit id per coordinate, in the layout of `values._orbits`: for mask I,
    entry x_I * n_a_I + a_I; ids in first-seen order over masks, x_I, a_I."""
    sizes = {}
    for mask in masks:
        members = [i for i in range(len(inputs)) if mask >> i & 1]
        sizes[mask] = (
            table_size([inputs[i] for i in members]),
            table_size([outputs[i] for i in members]),
        )
    ids = {mask: [-1] * (n_x * n_a) for mask, (n_x, n_a) in sizes.items()}
    count = 0
    for mask in masks:
        n_x, n_a = sizes[mask]
        for x_i in range(n_x):
            for a_i in range(n_a):
                if ids[mask][x_i * n_a + a_i] >= 0:
                    continue
                for sym in group:
                    img_mask, img_x, img_a = _image(sym, mask, x_i, a_i, inputs, outputs)
                    ids[img_mask][img_x * sizes[img_mask][1] + img_a] = count
                count += 1
    return ids, count
