"""Mixed-radix encoding of index tuples into dense row-major tables.

Convention used everywhere in the package: the *last* component varies
fastest, i.e. ``encode((v0, .., vk), (r0, .., rk)) = ((v0*r1 + v1)*r2 + ..)``.

`project` is the one place where index maps between such tables are built:
subset restrictions, player relabellings, the diagonal embedding into the
per-subset blocks and regrouping per-round symbols are all digit selections,
repetitions or reorderings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def table_size(radii: Sequence[int]) -> int:
    return math.prod(radii)


def encode(values: Sequence[int], radii: Sequence[int]) -> int:
    idx = 0
    for value, radix in zip(values, radii, strict=True):
        idx = idx * radix + value
    return idx


def decode(index: int, radii: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(radii)
    for pos in range(len(radii) - 1, -1, -1):
        index, out[pos] = divmod(index, radii[pos])
    return tuple(out)


def project(sizes: Sequence[int], positions: Sequence[int]) -> tuple[int, ...]:
    """Map every joint index over `sizes` to the index of its digits at
    `positions`, taken in that order, over the radii ``sizes[p]``.

    That is, entry ``i`` is ``encode([decode(i, sizes)[p] for p in positions],
    [sizes[p] for p in positions])``.  A repeated position copies its digit.
    """
    weight = [0] * len(sizes)
    stride = 1
    for pos in reversed(positions):
        weight[pos] += stride
        stride *= sizes[pos]
    out = [0]
    for size, w in zip(sizes, weight):
        out = [base + digit * w for base in out for digit in range(size)]
    return tuple(out)


def integer_nth_root(value: int, n: int) -> int | None:
    """The integer s with s**n == value, or None if value is not a perfect power."""
    if value <= 0 or n <= 0:
        return None
    root = round(value ** (1.0 / n))
    for candidate in (root - 1, root, root + 1):
        if candidate >= 1 and candidate**n == value:
            return candidate
    return None
