"""Tableau counting over skew shapes.

Three filling families, with positive integer entries:

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

``count_fillings``, ``content_counts`` and ``signed_svt_counts`` count
fillings with an exact content vector, for all three families, by one
chain decomposition (the region holding values <= i grows through a
nested sequence of partitions).  An svt's sign (-1)^(|T| - |shape|) is
fixed by its content, of size |T|, so the svt table holds signed counts
and a plain count is their absolute value.  The slow oracle every
count here is tested against, a stream that builds and validates each
filling one at a time, lives in ``tests/fillings.py``; the library's
only filling format is the plain ``{cell: set}`` map of
``iter_lattice_fillings`` (below).

Every such count reads one table per outer shape and kind (ssyt, rpp,
svt), cached per process: one backward walk from the top state, over the
chain transitions inverted, yields the coefficients of every inner shape
containing the table's root at once, up to its extra degree (the content
size past the cell count; always 0 for ssyt and rpp, whose tables hold
every content).  It adds each content's parts largest first, exact as
every count is symmetric in its content, each part at most the previous
one and the room left.  The first request of a kind builds it at its own
inner shape and extra degree.  A request the table does not cover
rebuilds it once, rooted at the meet of the old root and the request's
inner shape and at the larger extra degree, so a table only ever grows
to cover more requests.  Caches are only ever extended or replaced with
finished, idempotent values.

Validation happens once, at the public boundary: a ``SkewShape`` checks
its partitions and that inner lies inside outer when it is built, and
``count_fillings`` and ``content_counts`` check the kind.  Behind them,
one private reader, ``_graded``, cuts a table entry for callers that
pass partitions they have already checked: ``content_counts`` and
``signed_svt_counts`` wrap it, and the constructors of ``grothendieck``
and the Schur rows of ``symfunc`` call it directly, so their reads build
no second ``SkewShape``.

``flagged_schur`` gives the Schur coefficients of a straight svt (G) or
rpp (g) generating function with no table: one transfer walk over the
row-flagged fillings of Lenart and of Lam-Pylyavskyy, whose steps list
their strips directly, as row subsets (G) or products of row ranges (g).
The G walk runs degree by degree (``_lenart_degrees``), so a caller can
keep it and extend an expansion to a larger cap without a second walk.

Lattice fillings (svt whose reverse reading word is a lattice word) come
from one backtracker over the cells in reading order that checks the
lattice condition letter by letter and keeps every filling it reaches,
as the tuple of its cell sets, grouped by content.  Given a content it
prunes by that content; given only the total size |T| it sweeps every
content of that size at once.  Both are memoized in one cache of those
fillings keyed by the caller's skew shape, so one search per shape and
content (or size) serves every reader: ``count_lattice_fillings`` (and
``grothendieck.alpha``, from the sweep) read how many fillings it holds,
and ``iter_lattice_fillings`` hands each out as a plain ``{cell: set}``
map, unvalidated: the search builds only valid svt.
"""

from __future__ import annotations

import functools
import sys
from itertools import accumulate, combinations, islice, product
from math import comb
from operator import mul
from types import MappingProxyType
from typing import Iterator, Mapping

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
# the svt tables produce the signed content coefficients directly.


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
        add = grown.append
        for code, prev, w, free in layer:
            hi = above if strip else prev
            if hi > top:
                hi = top
            w -= lo
            for v in range(lo, hi + 1):
                add((code + v * scale, v, w + (v if v < above else above),
                     free + (v < hi)))
        layer = grown
        scale *= base
    return layer


def _lenart_degrees(key: Partition) -> Iterator[dict[Partition, int]]:
    """Lenart's signed Schur coefficients of G_key (see ``flagged_schur``),
    one degree at a time: the i-th dict holds the s_nu with |nu| = |key| + i.
    The walk ends only for the empty key, whose G is 1.

    A walk places the values 1, 2, ... in turn; value w adds a strip S of
    the (0-indexed) rows r >= w ending short of the row above, S possibly
    empty.  So a walk that arrives at nu at value v (by a nonempty strip
    placed at v - 1, or as the key at v = 1) either ends at nu, or places
    its next nonempty strip S at some w with v <= w <= min(S) and arrives
    at nu + S at value w + 1.  For each nu the walk keeps ``got[v]``, the
    signed count of walks arriving at value v; ``reach[w]``, their sum
    over v <= w, counts those that can place a strip at w.  A strip adds
    at least one cell, so only lower degrees feed nu's arrivals, and a
    degree is finished once the degrees below it are: its a_nu is the sum
    of nu's arrivals, and each strip S of nu adds (-1)^|S| reach[w] to
    the arrivals of nu + S at w + 1, for every w <= min(S).
    """
    d = sum(key)
    # degree -> {nu: got}, got indexed by value v in 1..len(nu) + 1
    waiting = {d: {key: [0, 1] + [0] * len(key)}}
    while waiting:
        out: dict[Partition, int] = {}
        for nu, got in waiting.pop(d, {}).items():
            reach = list(accumulate(got))
            out[nu] = reach[-1]
            signed = (reach, [-c for c in reach])
            lo = 1
            while not got[lo]:
                lo += 1
            low = nu + (0,)
            # rows lo and below ending short of the row above; the last is
            # the first empty row
            rows = [r for r in range(lo, len(low)) if low[r] < low[r - 1]]
            for k in range(1, len(rows) + 1):
                into = waiting.setdefault(d + k, {})
                for chosen in combinations(rows, k):
                    grown = list(low)
                    for r in chosen:
                        grown[r] += 1
                    if not grown[-1]:
                        grown.pop()
                    sigma = tuple(grown)
                    to = into.get(sigma)
                    if to is None:
                        to = into[sigma] = [0] * (len(sigma) + 2)
                    by = signed[k % 2]
                    for w in range(lo, chosen[0] + 1):
                        to[w + 1] += by[w]
        yield out
        d += 1


def flagged_schur(kind: str, key: Partition, cap: int) -> dict[Partition, int]:
    """Schur coefficients of the straight G_key (kind svt, signed) or
    g_key (kind rpp), up to degree ``cap``, with no chain table.

    Both rules count fillings whose entries in row r lie in 1..r - 1, so
    the cells holding v lie in rows v + 1 and below.  Each step of a walk
    places one value, its strips generated directly:

    * svt (Lenart, Ann. Comb. 4 (2000), Thm 2.2):
      G_key = sum over nu ⊇ key of (-1)^|nu/key| a_nu s_nu, where a_nu
      counts the fillings of nu/key strictly increasing along rows and
      columns.  The walk adds the cells holding v = 1, 2, ... to nu: a
      rook strip, at most one cell per row and per column, each at the
      end of its row.  Row r may gain its cell (r, nu_r + 1) exactly when
      nu_r < nu_{r-1}: if row r - 1 gains none, the result must stay a
      partition, and if it gains one, the two cells would share a column
      when nu_r = nu_{r-1}.  Any set of such rows is a strip, since their
      new cells lie in distinct columns nu_r + 1.  So the strips at v are
      the subsets of the rows r >= v + 1 that end short of the row above,
      the first empty row among them, each with sign (-1)^k for k cells.
      A filling ends once v passes its length (it has no such row).  The
      walk runs degree by degree (``_lenart_degrees``), and a_nu does not
      depend on the cap, so the expansion at cap p is exactly the degree
      <= p part of the expansion at any larger cap.
    * rpp (Lam-Pylyavskyy, IMRN 2007): g_key = sum over nu ⊆ key of
      f_nu s_nu, where f_nu counts the semistandard fillings of key/nu.
      The walk removes the cells holding v = l(key) - 1, ..., 1 from tau:
      a horizontal strip tau/sigma, that is tau_{r+1} <= sigma_r <= tau_r
      in every row.  Any choice of those lengths row by row is a
      partition, as sigma_r >= tau_{r+1} >= sigma_{r+1}.  So the strips
      at v are the product of the ranges [tau_{r+1}, tau_r] over the rows
      r >= v + 1, the rows above v + 1 kept whole.
    """
    if kind not in (SVT, RPP):
        raise ValueError(f"flagged Schur expansions are of svt or rpp, "
                         f"not {kind!r}")
    key = partition(key)
    if kind == SVT:
        out: dict[Partition, int] = {}
        for terms in islice(_lenart_degrees(key), max(cap + 1 - sum(key), 0)):
            out.update(terms)
        return out
    live = {key: 1}
    for v in range(len(key) - 1, 0, -1):
        nxt: dict[Partition, int] = {}
        for tau, c in live.items():
            head = tau[:v]
            spans = [range(y, x + 1)
                     for x, y in zip(tau[v:], tau[v + 1:] + (0,))]
            for tail in product(*spans):
                sigma = head + tail
                # only the last row may empty
                if sigma and not sigma[-1]:
                    sigma = sigma[:-1]
                nxt[sigma] = nxt.get(sigma, 0) + c
        live = nxt
    return {nu: c for nu, c in live.items() if sum(nu) <= cap}


class _ChainTables:
    """Exact-content counts of every skew shape with one outer shape.

    A state is a partition sigma inside ``outer``, coded as the sum of
    sigma[r] * base**r; the chains of outer/inner run from the code of
    inner to the code of outer.  What leaves a state does not depend on
    the inner shape, so all shapes with this outer share one table per
    kind: ssyt, rpp and svt, whose transitions carry the sign of the
    open-cell events; nothing cancels, as the content fixes the sign.

    ``back[kind]`` is (root, extra degree, table), where ``table[i]``
    maps each content to the count of outer/i, for every state i that
    contains the root, up to contents of size |outer/i| + extra (see
    ``_backward``).  Every request reads it through ``counts``.  A request
    it does not cover, because its inner shape does not contain the root
    or its extra degree is larger, rebuilds it once: rooted at the meet
    of the old root and the request's inner shape, at the larger of the
    two extra degrees.  The extra degree is always 0 for ssyt and rpp,
    whose tables hold every content.
    """

    def __init__(self, outer: Partition):
        self.outer = outer
        self.base = outer[0] + 1 if outer else 1
        # base**r for each row r
        self.powers = [self.base ** r for r in range(len(outer))]
        self.top = self.code(outer)
        self.back: dict[str, tuple[Partition, int,
                                   dict[int, dict[Partition, int]]]] = {}

    def code(self, p: Partition) -> int:
        return sum(map(mul, p, self.powers))

    def _parts(self, i: int) -> Word:
        base = self.base
        return tuple(i // q % base for q in self.powers)

    def _step(self, kind: str, live: dict[int, int], v: int,
              rows: dict[int, dict[int, list]], room: int) -> dict[int, int]:
        """Weighted states one part v away from the states of ``live``,
        over the given transitions by weight; for svt, whose lists of
        transitions ascend by state size, only states of size at most
        ``room``."""
        unit = kind != SVT
        nxt: dict[int, int] = {}
        get = nxt.get
        for i, n in live.items():
            row = rows[i].get(v, ())
            if unit:
                for j in row:
                    nxt[j] = get(j, 0) + n
            else:
                for j, c, s in row:
                    if s > room:
                        break
                    nxt[j] = get(j, 0) + n * c
        return nxt

    def counts(self, kind: str, inner: Partition,
               budget: int) -> dict[Partition, int]:
        """The table entry of outer/inner: nonzero counts by content, at
        least over the fillings of size |T| at most ``budget``.  |T| is at
        least the cell count, and equals it for ssyt and rpp: a budget below
        it builds no table, and the extra degree asked of the table is the
        budget less the cell count for svt, and 0 otherwise."""
        code = self.code(inner)
        cells = sum(self.outer) - sum(inner)
        if budget < cells:
            return {}
        extra = budget - cells if kind == SVT else 0
        # the table holds exactly the states containing its root; with no
        # table yet, the empty one covers nothing and the request roots it
        root, fits, table = self.back.get(kind, (inner, extra, {}))
        if code not in table or extra > fits:
            # the meet: the largest partition inside both
            root = tuple(map(min, root, inner))
            fits = max(fits, extra)
            table = self._backward(kind, root, fits)
            self.back[kind] = root, fits, table
        return table[code]

    def _backward(self, kind: str, root: Partition,
                  extra: int) -> dict[int, dict[Partition, int]]:
        """Coefficients of outer/i, by content, for every state i that
        contains ``root``, up to contents of size |outer/i| + extra.

        The transfer-matrix method (Stanley, EC1 4.7), run from the top state:
        the transitions from ``_walk`` are inverted into predecessor lists, and
        the contents are walked depth-first, largest part first, each part one
        DP step over the predecessors.  Counts are symmetric in the content, so
        any order of its parts gives them: every live state i at a content
        holds the coefficient of outer/i there.  The next part counts down to 1
        from the lesser of the previous part and the room left (the budget less
        the parts consumed).  In any order, consumed parts plus |i| never fall
        along an svt walk (a step adds at least one to the content per cell it
        adds), so a step reaches only states of size at most |outer| + extra
        less the parts consumed: with the states inverted in ascending size,
        each predecessor list ascends by size, and the step stops at the first
        one past that budget.
        """
        outer, strip, unit = self.outer, kind != RPP, kind != SVT
        limit = sum(outer) + extra
        # every partition between root and outer, decoded once
        parts = {j: self._parts(j) for j, *_ in _walk(
            self._parts(self.code(root)), outer, False, self.base)}
        size = {i: sum(p) for i, p in parts.items()}
        states = sorted(parts, key=size.get)
        preds: dict[int, dict[int, list]] = {i: {} for i in states}
        for i in states:
            for j, _, w, free in _walk(parts[i], outer, strip, self.base):
                row = preds[j]
                if not unit:
                    for k in range(not w, free + 1):
                        row.setdefault(w + k, []).append(
                            (i, comb(free, k) * (-1) ** k, size[i]))
                elif w:
                    row.setdefault(w, []).append(i)
        table: dict[int, dict[Partition, int]] = {i: {} for i in states}
        table[self.top] = {EMPTY: 1}
        # no state is smaller than the root
        room = limit - sum(root)
        # depth-first; a frame is [content, states, consumed size, next part]
        stack = [[EMPTY, {self.top: 1}, 0, room]]
        while stack:
            frame = stack[-1]
            content, bwd, used, v = frame
            if v < 1:
                stack.pop()
                continue
            frame[3] = v - 1
            used += v
            nxt = self._step(kind, bwd, v, preds, limit - used)
            if nxt:
                t = content + (v,)
                for i, c in nxt.items():
                    table[i][t] = c
                stack.append([t, nxt, used, min(v, room - used)])
        return table


_chain_cache: dict[Partition, _ChainTables] = {}


def _chain(outer: Partition) -> _ChainTables:
    tables = _chain_cache.get(outer)
    if tables is None:
        tables = _chain_cache[outer] = _ChainTables(outer)
    return tables


def _graded(outer: Partition, inner: Partition, kind: str,
            budget: int) -> dict[Partition, int]:
    """The table entry of outer/inner cut to |T| at most ``budget``, as a
    new dict in the backward walk's order: within each size, descending
    lex, as the walk is a depth-first preorder trying the largest part
    first.  A stable sort by size gives graded lex order.

    The one reader of the chain tables.  It trusts its arguments: outer
    and inner partitions with inner inside outer, and a known kind, which
    every library caller has already checked."""
    tables = _chain(outer)
    counts = tables.counts(kind, inner, budget)
    # the entry holds contents up to |outer/inner| plus the table's extra
    # degree (0 for ssyt and rpp), so a budget reaching that cuts nothing
    if not counts or budget - sum(outer) + sum(inner) >= tables.back[kind][1]:
        return dict(counts)
    return {t: c for t, c in counts.items() if sum(t) <= budget}


def count_fillings(shape: SkewShape, kind: str, content: Partition,
                   max_total_size: int | None = None) -> int:
    """Number of valid fillings whose content vector equals ``content``.

    The content is a partition; contents with internal zeros cannot be
    monomial-basis keys and are not supported here.  ``max_total_size``
    bounds |T|: the cell count for ssyt and rpp, the content size for svt.
    """
    _check_kind(kind)
    content = partition(content)
    total = sum(content) if kind == SVT else shape.size()
    if max_total_size is not None and total > max_total_size:
        return 0
    counts = _chain(shape.outer).counts(kind, shape.inner, total)
    return abs(counts.get(content, 0))


def content_counts(shape: SkewShape, kind: str, *,
                   max_total_size: int | None = None) -> dict[Partition, int]:
    """All nonzero exact-content counts, keyed by content partition.

    Contents of every length are counted, as over an unbounded alphabet.
    ``max_total_size`` bounds |T|: the cell count for ssyt and rpp, the
    content size for svt, where it is required (the svt table grows with
    it).  The svt counts are the absolute values of ``signed_svt_counts``.
    Contents come in the chain table's walk order: descending lex within
    each size, the sizes interleaved (see ``_graded``).
    """
    _check_kind(kind)
    if kind == SVT and max_total_size is None:
        raise ValueError("svt content counts need max_total_size")
    budget = shape.size() if max_total_size is None else max_total_size
    counts = _graded(shape.outer, shape.inner, kind, budget)
    return {t: abs(c) for t, c in counts.items()} if kind == SVT else counts


def signed_svt_counts(shape: SkewShape, *,
                      max_total_size: int) -> dict[Partition, int]:
    """Signed svt content coefficients: sum of (-1)^(|T| - |shape|) over
    fillings with the given exact content, keyed by content partition.

    Read straight from the svt chain table, in its walk order (see
    ``_graded``); must agree with (and is tested against) signing each
    filling of the stream in ``tests/fillings.py`` by its size.
    """
    return _graded(shape.outer, shape.inner, SVT, max_total_size)


# ---------------------------------------------------------------------------
# lattice fillings


def _reading_order(shape: SkewShape):
    cells = shape.cells()
    order = sorted(cells, key=lambda rc: (-rc[1], rc[0]))
    pos = {cell: i for i, cell in enumerate(order)}
    right = [pos.get((r, c + 1), -1) for r, c in order]
    above = [pos.get((r - 1, c), -1) for r, c in order]
    return order, right, above


def _lattice_backtrack(shape: SkewShape, total: int, content: Partition | None
                       ) -> dict[Partition, list[tuple[Word, ...]]]:
    """The lattice svt of the shape with |T| == total, each as the tuple
    of its cell sets in reading order, keyed by content.

    With a content only that content is searched, and letters past its
    parts are never tried; with none, every content of that size is.
    It nests a call per cell and per letter, so it raises ValueError past
    half the recursion limit, leaving the rest to its callers.
    """
    order, right, above = _reading_order(shape)
    ncells = len(order)
    out: dict[Partition, list[tuple[Word, ...]]] = {}
    if total < ncells:
        return out
    depth = sys.getrecursionlimit() // 2
    if ncells + total > depth:
        raise ValueError(f"a lattice search over {ncells} cells and {total} "
                         f"letters passes the depth bound {depth}")
    # with no content no letter count can reach the bound
    bound = content if content is not None else (total,) * total
    L = len(bound)
    counts = [0] * (L + 1)
    top = 0  # the largest letter read so far; a lattice word uses 1..top
    sets: list[Word] = [()] * ncells

    def rec(idx: int, remaining: int) -> None:
        if idx == ncells:
            if remaining == 0:
                out.setdefault(tuple(counts[1:top + 1]), []).append(tuple(sets))
            return
        if remaining - (ncells - idx) < 0:
            return
        above_max = sets[above[idx]][-1] if above[idx] >= 0 else 0
        cap = sets[right[idx]][0] if right[idx] >= 0 else L
        chosen: list[int] = []

        def add_letter(v: int) -> bool:
            # letters enter the reading word in this order, so the
            # lattice prefix condition and the content bound are
            # checked letter by letter
            nonlocal top
            if counts[v] >= bound[v - 1]:
                return False
            if v > 1 and counts[v] >= counts[v - 1]:
                return False
            counts[v] += 1
            if v > top:
                top = v
            chosen.append(v)
            return True

        def pop_letter() -> None:
            nonlocal top
            v = chosen.pop()
            counts[v] -= 1
            if not counts[v]:
                top = v - 1

        def build(next_hi: int, rem: int) -> None:
            sets[idx] = tuple(reversed(chosen))
            rec(idx + 1, rem)
            if rem >= ncells - idx:
                for v in range(next_hi, above_max, -1):
                    if add_letter(v):
                        build(v - 1, rem - 1)
                        pop_letter()

        # the cell's largest letter is read first, so it is at most top + 1
        for m in range(above_max + 1, min(cap, top + 1) + 1):
            if add_letter(m):
                build(m - 1, remaining - 1)
                pop_letter()

    rec(0, total)
    return out


@functools.cache
def _lattice_table(shape: SkewShape, total: int, content: Partition | None
                   ) -> Mapping[Partition, list[tuple[Word, ...]]]:
    return MappingProxyType(_lattice_backtrack(shape, total, content))


def count_lattice_fillings(shape: SkewShape, content: Partition) -> int:
    """Number of svt of the shape whose reverse reading word is a lattice
    word with exactly the given content.

    Entries never exceed the number of parts of the content, so the count
    is finite with no further cap.  The search is pruned by the content,
    which for a single content beats a sweep over all of its size.
    """
    content = partition(content)
    return len(_lattice_table(shape, sum(content), content).get(content, ()))


def iter_lattice_fillings(shape: SkewShape, content: Partition
                          ) -> Iterator[dict[Cell, Word]]:
    """The fillings behind ``count_lattice_fillings``, from the same
    cached search, each as a fresh map from cell to its ascending set."""
    content = partition(content)
    order = _reading_order(shape)[0]
    for leaf in _lattice_table(shape, sum(content), content).get(content, ()):
        yield dict(zip(order, leaf))
