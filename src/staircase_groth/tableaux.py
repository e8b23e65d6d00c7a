"""Tableau enumeration and counting over skew shapes.

Three filling families over a bounded alphabet {1..max_entry}:

* ``ssyt``: singleton entries, rows weakly increase, columns strictly
  increase.
* ``rpp``: singleton entries (reverse plane partitions), rows and
  columns weakly increase.
* ``svt``: nonempty finite sets, rows weakly and columns strictly
  increase, where for sets A <= B means max A <= min B and A < B means
  max A < min B.

Contents differ by family: an ssyt counts cells holding each value, an
rpp counts columns containing each value, an svt counts cells whose set
contains each value.

``enumerate_fillings`` streams every filling in a documented
deterministic order.  ``count_fillings``, ``content_counts`` and
``signed_svt_counts`` count fillings with an exact content vector, for
all three families, by one chain decomposition (the region holding
values <= i grows through a nested sequence of partitions), which must
agree with filtering the naive stream and is tested to.  The chain
transitions are cached per outer shape and per process, row by row as
they are first used; a count's own DP state lives only as long as that
count or sweep.  Caches are only ever extended with finished, idempotent
values, so concurrent readers are safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .shapes import (
    EMPTY,
    Partition,
    SkewShape,
    contains,  # noqa: F401  (perfbench's tracing test looks it up here)
    partition,
)

SSYT = "ssyt"
RPP = "rpp"
SVT = "svt"
KINDS = (SSYT, RPP, SVT)

Word = tuple[int, ...]
Cell = tuple[int, int]


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown filling kind {kind!r}; expected one of {KINDS}")


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


# ---------------------------------------------------------------------------
# exact-content counting via chain decomposition
#
# A filling corresponds to a chain of partitions nu_0 <= nu_1 <= ... where
# nu_i/inner is the region of cells finished after value i.  For an rpp the
# region of value i is the skew nu_i/nu_{i-1} and contributes one to the
# content per occupied column; for an ssyt the region must be a horizontal
# strip and contributes its cell count.
#
# For an svt, the cells whose set contains value i form a horizontal strip
# sigma over the finished region a (a cell holding i needs everything above
# it finished).  Within each row of that strip every cell except possibly
# the rightmost is exactly {i}; the rightmost may stay open and collect
# larger values.  The cell below a row end of a horizontal strip lies
# outside sigma, so each nonempty row may stay open on its own.  Grouped by
# the next finished region tau, the strips with k open rows are the
# k-subsets of the rows where tau stops short of its bound, and each adds
# |tau/a| + k to the content.  Each open cell contributes a factor of -1,
# and the total number of open events over a filling is |T| - |shape|, so
# the signed tables produce the signed content coefficients directly.


def _walk(a: Word, outer: Partition, strip: bool,
          base: int) -> list[tuple[int, int, int, int]]:
    """Every sigma with a <= sigma <= outer, as (code, last part, weight,
    free rows), where the code is the sum of sigma[r] * base**r.

    With ``strip`` only horizontal strips sigma/a are walked.  The weight
    is the number of columns sigma/a meets, which for a strip is its cell
    count; the free rows are those where sigma stops short of its bound.
    """
    layer = [(0, outer[0] if outer else 0, 0, 0)]
    scale = 1
    for r, top in enumerate(outer):
        lo = a[r]
        # row r reaches new columns only up to a[r - 1]; further right,
        # row r - 1 of sigma/a already meets them
        above = a[r - 1] if r else top
        grown = []
        for code, prev, w, free in layer:
            hi = min(top, above if strip else prev)
            grown.extend((code + v * scale, v,
                          w + (v if v < above else above) - lo, free + (v < hi))
                         for v in range(lo, hi + 1))
        layer = grown
        scale *= base
    return layer


_SIGNED_SVT = "signed_svt"
_UNIT = (SSYT, RPP)  # kinds whose transitions all have multiplier 1


class _ChainTables:
    """Chain transitions of every skew shape with one outer shape.

    A state is a partition sigma inside ``outer``, coded as the sum of
    sigma[r] * base**r; the chains of outer/inner run from the code of
    inner to the code of outer.  What leaves a state does not depend on
    the inner shape, so all shapes with this outer share one table.
    ``rows[kind][i]`` maps a weight to the transitions out of state i:
    end states for ssyt and rpp, (end state, multiplier) pairs for svt,
    where the signed kind carries the sign of the open-cell events.  A row
    is built on first use and never changes afterwards, so concurrent
    readers see no row or a finished one; the DP state of a count lives
    in that count.
    """

    def __init__(self, outer: Partition):
        self.outer = outer
        self.base = outer[0] + 1 if outer else 1
        self.top = self.code(outer)
        self.rows: dict[str, dict[int, dict[int, list]]] = {
            kind: {} for kind in (*KINDS, _SIGNED_SVT)}
        self.size: dict[int, int] = {}  # cells of the states svt rows reach

    def code(self, p: Partition) -> int:
        return sum(x * self.base ** r for r, x in enumerate(p))

    def _row(self, kind: str, i: int) -> dict[int, list]:
        base = self.base
        a = tuple(i // base ** r % base for r in range(len(self.outer)))
        cells = sum(a)
        out: dict[int, list] = {}
        sign = -1 if kind == _SIGNED_SVT else 1
        for j, _, w, free in _walk(a, self.outer, kind != RPP, base):
            if kind in _UNIT:
                if w:
                    out.setdefault(w, []).append(j)
                continue
            self.size[j] = cells + w
            for k in range(not w, free + 1):
                out.setdefault(w + k, []).append((j, comb(free, k) * sign ** k))
        self.rows[kind][i] = out
        return out

    def _step(self, kind: str, fwd: dict[int, int], v: int) -> dict[int, int]:
        """Weighted states one part v beyond the states of ``fwd``."""
        rows = self.rows[kind]
        nxt: dict[int, int] = {}
        get = nxt.get
        for i, n in fwd.items():
            row = rows.get(i)
            if row is None:
                row = self._row(kind, i)
            if kind in _UNIT:
                for j in row.get(v, ()):
                    nxt[j] = get(j, 0) + n
            else:
                for j, c in row.get(v, ()):
                    nxt[j] = get(j, 0) + n * c
        return nxt

    def count(self, kind: str, inner: Partition, content: Partition) -> int:
        fwd = {self.code(inner): 1}
        for v in content:
            fwd = self._step(kind, fwd, v)
        return fwd.get(self.top, 0)

    def sweep(self, kind: str, inner: Partition, max_length: int,
              budget: int) -> dict[Partition, int]:
        """Nonzero counts of every content with at most ``max_length``
        parts summing to at most ``budget``, in graded lex order.

        Walks the contents as a prefix tree, so each prefix is one DP step
        and a prefix no state survives ends its subtree.  The top state
        has no transitions, so its count is taken out as it is reached.
        An svt content needs at least one more value per unfinished cell,
        so states with more unfinished cells than the rest of the budget
        are dropped.
        """
        top = self.top
        cells = sum(self.outer)
        size = self.size
        prune = kind not in _UNIT
        out: dict[Partition, int] = {}

        def grow(prefix: Partition, fwd: dict[int, int], cap: int) -> None:
            room = budget - sum(prefix)
            for v in range(min(cap, room), 0, -1):
                t = prefix + (v,)
                nxt = self._step(kind, fwd, v)
                c = nxt.pop(top, 0)
                if c:
                    out[t] = c
                rest = min(room - v, v * (max_length - len(t)))
                if prune:
                    floor = cells - rest
                    nxt = {j: c for j, c in nxt.items()
                           if c and size[j] >= floor}
                if nxt and rest:
                    grow(t, nxt, v)

        grow(EMPTY, {self.code(inner): 1}, budget)
        # the walk meets the contents of each size in descending lex order,
        # so a stable sort by size gives graded lex order
        return {t: out[t] for t in sorted(out, key=sum)}


_chain_cache: dict[Partition, _ChainTables] = {}


def _chain(outer: Partition) -> _ChainTables:
    tables = _chain_cache.get(outer)
    if tables is None:
        tables = _chain_cache[outer] = _ChainTables(outer)
    return tables


def count_fillings(shape: SkewShape, kind: str, content: Partition,
                   max_total_size: int | None = None) -> int:
    """Number of valid fillings whose content vector equals ``content``.

    The content is a partition; contents with internal zeros cannot be
    monomial-basis keys and are not supported here.
    """
    _check_kind(kind)
    content = partition(content)
    if max_total_size is not None and sum(content) > max_total_size:
        return 0
    return _chain(shape.outer).count(kind, shape.inner, content)


def content_counts(shape: SkewShape, kind: str, *, num_vars: int,
                   max_total_size: int | None = None) -> dict[Partition, int]:
    """All nonzero exact-content counts, keyed by content partition.

    Contents are restricted to at most ``num_vars`` parts (values drawn
    from {1..num_vars}); for svt, ``max_total_size`` bounds |T| and
    defaults to the natural alphabet bound.
    """
    _check_kind(kind)
    n = shape.size()
    if n == 0:
        return {EMPTY: 1}
    budget = n
    if kind == SVT:
        budget = n * num_vars
        if max_total_size is not None:
            budget = min(budget, max_total_size)
    return _chain(shape.outer).sweep(kind, shape.inner, num_vars, budget)


def signed_svt_counts(shape: SkewShape, *, num_vars: int,
                      max_total_size: int) -> dict[Partition, int]:
    """Signed svt content coefficients: sum of (-1)^(|T| - |shape|) over
    fillings with the given exact content, keyed by content partition.

    Computed by the signed chain tables; must agree with (and is tested
    against) signing the plain counts from the naive stream.
    """
    if shape.size() == 0:
        return {EMPTY: 1}
    return _chain(shape.outer).sweep(_SIGNED_SVT, shape.inner, num_vars,
                                     max_total_size)


# ---------------------------------------------------------------------------
# lattice fillings


def _reading_order(shape: SkewShape):
    cells = shape.cells()
    order = sorted(cells, key=lambda rc: (-rc[1], rc[0]))
    pos = {cell: i for i, cell in enumerate(order)}
    right = [pos.get((r, c + 1), -1) for r, c in order]
    above = [pos.get((r - 1, c), -1) for r, c in order]
    return order, right, above


def _lattice_backtrack(shape: SkewShape, content: Partition,
                       collect: list | None) -> int:
    order, right, above = _reading_order(shape)
    ncells = len(order)
    total = sum(content)
    if ncells == 0:
        return 1 if not content else 0
    if total < ncells:
        return 0
    L = len(content)
    counts = [0] * (L + 1)
    sets: list[Word] = [()] * ncells
    found = 0

    def rec(idx: int, remaining: int) -> None:
        nonlocal found
        if idx == ncells:
            if remaining == 0:
                found += 1
                if collect is not None:
                    collect.append(SetFilling(
                        shape, {order[i]: sets[i] for i in range(ncells)}))
            return
        if remaining - (ncells - idx) < 0:
            return
        above_max = sets[above[idx]][-1] if above[idx] >= 0 else 0
        cap = sets[right[idx]][0] if right[idx] >= 0 else L
        chosen: list[int] = []

        def add_letter(v: int) -> bool:
            # letters enter the reading word in this order, so the
            # lattice prefix condition and the content budget are
            # checked letter by letter
            if counts[v] >= content[v - 1]:
                return False
            if v > 1 and counts[v] >= counts[v - 1]:
                return False
            counts[v] += 1
            chosen.append(v)
            return True

        def pop_letter() -> None:
            counts[chosen.pop()] -= 1

        def build(next_hi: int, rem: int) -> None:
            sets[idx] = tuple(reversed(chosen))
            rec(idx + 1, rem)
            if rem >= ncells - idx:
                for v in range(next_hi, above_max, -1):
                    if add_letter(v):
                        build(v - 1, rem - 1)
                        pop_letter()

        for m in range(above_max + 1, cap + 1):
            if add_letter(m):
                build(m - 1, remaining - 1)
                pop_letter()

    rec(0, total)
    return found


@functools.cache
def _lattice_count(outer: Partition, inner: Partition, content: Partition) -> int:
    return _lattice_backtrack(SkewShape(outer, inner), content, None)


def count_lattice_fillings(shape: SkewShape, content: Partition) -> int:
    """Number of svt of the shape whose reverse reading word is a lattice
    word with exactly the given content.

    Entries never exceed the number of parts of the content, so the count
    is finite with no further cap.
    """
    return _lattice_count(shape.outer, shape.inner, partition(content))


def iter_lattice_fillings(shape: SkewShape, content: Partition) -> Iterator[SetFilling]:
    """Materialize the fillings behind ``count_lattice_fillings``."""
    acc: list[SetFilling] = []
    _lattice_backtrack(shape, partition(content), acc)
    return iter(acc)
