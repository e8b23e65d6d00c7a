"""The filling stream: the slow oracle behind the counting engines.

Every filling of a skew shape is built and validated one at a time, as a
``SetFilling``: a nonempty ascending set in every cell.  ``is_ssyt``,
``is_rpp`` and ``is_svt`` check the three families of
``staircase_groth.tableaux``, ``content_of`` reads a filling's content
under its family's convention, ``reverse_reading_word`` and
``is_lattice`` give the lattice condition, and ``enumerate_fillings``
streams every filling with bounded entries in a documented deterministic
order.

The tests count this stream to check the chain tables, the flagged walk
and the lattice search.  So this module reads only the shapes and the
family names of the library, and no counting function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from staircase_groth.shapes import SkewShape
from staircase_groth.tableaux import RPP, SSYT, SVT, _check_kind

Word = tuple[int, ...]


@dataclass(frozen=True)
class SetFilling:
    """Assignment of a nonempty ascending set to every cell of a shape."""

    shape: SkewShape
    entries: dict  # Cell -> tuple[int, ...], sorted ascending

    def __post_init__(self):
        cells = set(self.shape.cells())
        if set(self.entries) != cells:
            raise ValueError("entries must cover exactly the cells of the shape")
        for cell, vals in self.entries.items():
            t = tuple(vals)
            if not t or any(v < 1 for v in t) or any(
                    t[i] >= t[i + 1] for i in range(len(t) - 1)):
                raise ValueError(
                    f"cell {cell} needs a nonempty strictly ascending set, got {vals}")

    def total_size(self) -> int:
        """Sum of the cardinalities of all cell sets."""
        return sum(len(v) for v in self.entries.values())

    def max_entry(self) -> int:
        return max((v[-1] for v in self.entries.values()), default=0)


def _neighbor(t: SetFilling, r: int, c: int) -> Word | None:
    return t.entries.get((r, c))


def is_ssyt(t: SetFilling) -> bool:
    """Singleton sets, rows weakly increasing, columns strictly increasing."""
    for (r, c), vals in t.entries.items():
        if len(vals) != 1:
            return False
        left = _neighbor(t, r, c - 1)
        if left is not None and left[0] > vals[0]:
            return False
        up = _neighbor(t, r - 1, c)
        if up is not None and up[0] >= vals[0]:
            return False
    return True


def is_rpp(t: SetFilling) -> bool:
    """Singleton sets, rows and columns weakly increasing."""
    for (r, c), vals in t.entries.items():
        if len(vals) != 1:
            return False
        left = _neighbor(t, r, c - 1)
        if left is not None and left[0] > vals[0]:
            return False
        up = _neighbor(t, r - 1, c)
        if up is not None and up[0] > vals[0]:
            return False
    return True


def is_svt(t: SetFilling) -> bool:
    """Rows weakly increase and columns strictly increase as sets."""
    for (r, c), vals in t.entries.items():
        left = _neighbor(t, r, c - 1)
        if left is not None and left[-1] > vals[0]:
            return False
        up = _neighbor(t, r - 1, c)
        if up is not None and up[-1] >= vals[0]:
            return False
    return True


_VALIDATORS = {SSYT: is_ssyt, RPP: is_rpp, SVT: is_svt}


def content_of(t: SetFilling, kind: str) -> Word:
    """Content vector of a filling under the given family's convention.

    Trailing zeros are trimmed.  Raises ValueError when the filling is
    not valid for the requested kind.
    """
    _check_kind(kind)
    if not _VALIDATORS[kind](t):
        raise ValueError(f"filling is not a valid {kind}")
    top = t.max_entry()
    counts = [0] * top
    if kind == RPP:
        bycol: dict[int, set[int]] = {}
        for (r, c), vals in t.entries.items():
            bycol.setdefault(c, set()).add(vals[0])
        for col_vals in bycol.values():
            for v in col_vals:
                counts[v - 1] += 1
    else:
        for vals in t.entries.values():
            for v in vals:
                counts[v - 1] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def reverse_reading_word(t: SetFilling) -> Word:
    """Read columns right to left, top to bottom, each set descending."""
    cells = t.shape.cells()
    if not cells:
        return ()
    maxc = max(c for _, c in cells)
    maxr = max(r for r, _ in cells)
    word: list[int] = []
    for c in range(maxc, 0, -1):
        for r in range(1, maxr + 1):
            vals = t.entries.get((r, c))
            if vals is not None:
                word.extend(reversed(vals))
    return tuple(word)


def is_lattice(w: Word) -> bool:
    """Every prefix holds at least as many a's as (a+1)'s, for all a >= 1."""
    counts: dict[int, int] = {}
    for v in w:
        if v > 1 and counts.get(v, 0) >= counts.get(v - 1, 0):
            return False
        counts[v] = counts.get(v, 0) + 1
    return True


# ---------------------------------------------------------------------------
# streaming enumeration


def enumerate_fillings(shape: SkewShape, kind: str, max_entry: int,
                       max_total_size: int | None = None) -> Iterator[SetFilling]:
    """Stream every valid filling with entries <= max_entry exactly once.

    Order is deterministic: cells are scanned row-major, and at each cell
    the candidate values (for ssyt/rpp) or candidate sets (for svt, by
    ascending lexicographic order of their sorted tuples) are tried in
    ascending order.  ``max_total_size`` caps the total size |T|; for
    ssyt/rpp the total size always equals the cell count.
    """
    _check_kind(kind)
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    cells = shape.cells()
    ncells = len(cells)
    if max_total_size is not None and max_total_size < ncells:
        return
    if ncells == 0:
        yield SetFilling(shape, {})
        return
    pos = {cell: i for i, cell in enumerate(cells)}
    left = [pos.get((r, c - 1), -1) for r, c in cells]
    above = [pos.get((r - 1, c), -1) for r, c in cells]

    if kind in (SSYT, RPP):
        vals = [0] * ncells

        def gen_single(idx: int) -> Iterator[SetFilling]:
            if idx == ncells:
                yield SetFilling(shape, {cells[i]: (vals[i],) for i in range(ncells)})
                return
            lo = 1
            if left[idx] >= 0:
                lo = max(lo, vals[left[idx]])
            if above[idx] >= 0:
                lo = max(lo, vals[above[idx]] + (1 if kind == SSYT else 0))
            for v in range(lo, max_entry + 1):
                vals[idx] = v
                yield from gen_single(idx + 1)

        yield from gen_single(0)
        return

    sets: list[Word] = [()] * ncells

    def gen_svt(idx: int, used: int) -> Iterator[SetFilling]:
        if idx == ncells:
            yield SetFilling(shape, {cells[i]: sets[i] for i in range(ncells)})
            return
        lo = 1
        if left[idx] >= 0:
            lo = max(lo, sets[left[idx]][-1])
        if above[idx] >= 0:
            lo = max(lo, sets[above[idx]][-1] + 1)
        if max_total_size is None:
            room = max_entry
        else:
            room = max_total_size - used - (ncells - idx - 1)
        cur: list[int] = []

        def grow(start: int) -> Iterator[SetFilling]:
            for v in range(start, max_entry + 1):
                cur.append(v)
                sets[idx] = tuple(cur)
                yield from gen_svt(idx + 1, used + len(cur))
                if len(cur) < room:
                    yield from grow(v + 1)
                cur.pop()

        if room >= 1:
            yield from grow(lo)

    yield from gen_svt(0, 0)
