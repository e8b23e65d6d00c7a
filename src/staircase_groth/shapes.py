"""Partition and skew-shape combinatorics.

A partition is a canonical tuple of weakly decreasing positive integers;
the empty tuple is the empty partition.  A skew shape pairs an outer and
an inner partition with the inner contained in the outer.  Cells are
(row, column) pairs, 1-indexed, row 1 on top.

All values are immutable and every function is pure, so everything here
is safe to call from concurrent code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from operator import index
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]

EMPTY: Partition = ()


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize an iterable of parts: strip trailing zeros, validate.

    Each part must be an integer, read with ``operator.index``: a float
    or a string raises TypeError rather than being truncated or parsed.
    Raises ValueError when parts are negative, internally zero, or not
    weakly decreasing.
    """
    p = tuple(map(index, parts))
    while p and p[-1] == 0:
        p = p[:-1]
    for i, x in enumerate(p):
        if x <= 0:
            raise ValueError(f"partition parts must be positive: {p}")
        if i and p[i - 1] < x:
            raise ValueError(f"partition parts must weakly decrease: {p}")
    return p


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram across its main diagonal."""
    if not p:
        return EMPTY
    return tuple(sum(1 for x in p if x >= i) for i in range(1, p[0] + 1))


def staircase(n: int) -> Partition:
    """The staircase partition (n, n-1, ..., 1); n = 0 gives the empty one."""
    if n < 0:
        raise ValueError("staircase index must be nonnegative")
    return tuple(range(n, 0, -1))


def contains(outer: Partition, inner: Partition) -> bool:
    """Componentwise containment; parts beyond the length read as 0."""
    if len(inner) > len(outer):
        return False
    return all(m <= o for o, m in zip(outer, inner))


def graded_lex_key(p: Partition) -> tuple:
    """Sort key: ascending by size, then descending lexicographic.

    This is the canonical listing order used for subpartition sweeps and
    for serialized coefficient tables, e.g. (2) before (1,1).
    """
    return (sum(p), tuple(-x for x in p))


@functools.cache
def subpartitions(p: Partition) -> tuple[Partition, ...]:
    """All partitions contained in p, each once, in graded lex order."""
    acc: list[Partition] = []

    def rec(i: int, cap: int, cur: tuple[int, ...]) -> None:
        acc.append(cur)
        if i == len(p):
            return
        for v in range(1, min(p[i], cap) + 1):
            rec(i + 1, v, cur + (v,))

    rec(0, p[0] if p else 0, EMPTY)
    acc.sort(key=graded_lex_key)
    return tuple(acc)


def partitions_of(n: int) -> Iterator[Partition]:
    """Generate all partitions of n, in descending lex order."""
    if n < 0:
        return

    def rec(rem: int, largest: int, cur: tuple[int, ...]):
        if rem == 0:
            yield cur
            return
        for v in range(min(largest, rem), 0, -1):
            yield from rec(rem - v, v, cur + (v,))

    yield from rec(n, n, EMPTY)


@dataclass(frozen=True)
class SkewShape:
    """Skew shape outer/inner: the cells of outer's diagram not in inner's."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        object.__setattr__(self, "outer", partition(self.outer))
        object.__setattr__(self, "inner", partition(self.inner))
        if not contains(self.outer, self.inner):
            raise ValueError(
                f"inner {self.inner} not contained in outer {self.outer}")

    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def cells(self) -> tuple[tuple[int, int], ...]:
        """Cells (row, col) in row-major order, 1-indexed from the top."""
        out = []
        for r, o in enumerate(self.outer, start=1):
            lo = self.inner[r - 1] if r - 1 < len(self.inner) else 0
            out.extend((r, c) for c in range(lo + 1, o + 1))
        return tuple(out)

    def __str__(self) -> str:
        return format_skew(self)


class StripFlags(NamedTuple):
    horizontal: bool
    vertical: bool
    rook: bool


def classify_strip(shape: SkewShape) -> StripFlags:
    """Strip classification of a skew shape.

    horizontal: no column holds two cells; vertical: no row holds two
    cells; rook: both at once.
    """
    outer, inner = shape.outer, shape.inner

    def inner_at(r: int) -> int:
        return inner[r] if r < len(inner) else 0

    horizontal = all(
        outer[r + 1] <= inner_at(r) for r in range(len(outer) - 1))
    vertical = all(
        outer[r] - inner_at(r) <= 1 for r in range(len(outer)))
    return StripFlags(horizontal, vertical, horizontal and vertical)


def rook_strip_inners(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Every sigma with mu/sigma a rook strip, with its cell count, in
    graded lex order of sigma.

    mu/sigma is a rook strip exactly when it is a set of corners of mu,
    the cells (r, mu_r) with mu_r > mu_{r+1}.  A corner set is a rook
    strip: corners lie in distinct rows and columns, and removing any of
    them leaves a partition.  Conversely, a rook strip holds row r's cell
    only at the row's end, and if mu_{r+1} = mu_r, row r + 1 would lose
    the cell below it, in the same column.  So the sigma are mu less each
    of the 2^{#corners} corner subsets.
    """
    corners = [r for r, x in enumerate(mu)
               if r + 1 == len(mu) or mu[r + 1] < x]
    out = []
    for k in range(len(corners) + 1):
        for chosen in combinations(corners, k):
            sigma = list(mu)
            for r in chosen:
                sigma[r] -= 1
            # only the last row may empty
            if sigma and not sigma[-1]:
                sigma.pop()
            out.append((tuple(sigma), k))
    out.sort(key=lambda pair: graded_lex_key(pair[0]))
    return tuple(out)


def star_join(nu: Partition, mu: Partition) -> SkewShape:
    """Join nu and mu into one skew shape, corner to corner.

    The diagram of nu is placed above and to the right of the diagram of
    mu so that mu's top right corner touches nu's bottom left corner; the
    two blocks share no row or column.
    """
    nu = partition(nu)
    mu = partition(mu)
    if not mu:
        return SkewShape(nu, EMPTY)
    w = mu[0]
    outer = tuple(x + w for x in nu) + mu
    inner = (w,) * len(nu)
    return SkewShape(outer, inner)


def parse_partition(text: str) -> Partition:
    """Parse '4,3,2,1'; the empty string is the empty partition."""
    text = text.strip()
    if not text:
        return EMPTY
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed partition {text!r}") from None
    return partition(parts)


def format_partition(p: Partition) -> str:
    return ",".join(str(x) for x in p)


def parse_skew(text: str) -> SkewShape:
    """Parse 'outer/inner'; a missing '/inner' means an empty inner."""
    if "/" in text:
        o, _, i = text.partition("/")
        return SkewShape(parse_partition(o), parse_partition(i))
    return SkewShape(parse_partition(text), EMPTY)


def format_skew(shape: SkewShape) -> str:
    if shape.inner:
        return f"{format_partition(shape.outer)}/{format_partition(shape.inner)}"
    return format_partition(shape.outer)
