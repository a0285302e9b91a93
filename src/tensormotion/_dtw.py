"""Accumulated-cost kernel for dynamic time warping.

The recurrence is the subsequence DTW of Müller, *Information Retrieval
for Music and Motion* (2007), ch. 4. The cost matrix comes from one
``scipy.spatial.distance.cdist`` call, and the dynamic program is
picked by reference length. Up to ``_SCALAR_MAX_WIDTH`` reference
frames it runs the plain scalar recurrence on Python floats; there,
per-call numpy overhead would dominate. Longer references get a
vectorized min-plus row scan. Both compute the cost of cell ``(i, j)``
from coordinate differences, so aligning a sequence with itself yields
an exactly zero diagonal on every path.

A caller that already holds the cost rows can pass them in, as a
:class:`CostRows` ring: ``cdist`` is pair-local, so a cell computed for
an earlier query that shared the frame, or over a slice of the
reference, is bit-identical to the one a cold call would compute. The
online predictor keeps its ring across updates. Against references of
at least ``_PRUNE_MIN_WIDTH`` frames the ring computes a cell only when
the warping reads it. Below that width every row is computed in full
when its frame arrives, once per frame. The cells of a head that repeats
the reference's tail bit for bit (an extended reference's copied tail)
are copied from their twins, again because ``cdist`` is pair-local, and
the row's running sum, which the row scan needs, is kept with the row.
That sum is the same sequential 1-D accumulate a cold scan runs, so the
scan fed the kept sums is bit-identical to a cold one.

A caller that reads only the last row's argmin, as the phase lookup
does, can ask for a pruned scan (PrunedDTW, Silva & Batista, SDM 2016;
the cumulative lower bounds of the UCR suite, Rakthanmanon et al., KDD
2012). The cheapest of a few pure-diagonal paths bounds the best match
from above. Costs are non-negative, so a cell whose value plus the row
minima of all later rows exceeds that bound lies on no better path, and
each row is computed only over the span its predecessor leaves live.
The limits carry a slack that provably exceeds the rounding of the
pruned and of the full scan, and a second last-row column within that
slack of the minimum hands the decision to the full scan, so the
located index is exactly the full matrix's. The pruned scan runs only
on open-begin alignments against references of at least
``_PRUNE_MIN_WIDTH`` frames, and only when some diagonal stands out
from the rest: elsewhere its fixed cost would not pay off. It reads its
costs from a :class:`CostRows` ring, which a cold call fills with its
whole query and the online loop with each update's new frames: one
code path serves both, and their results are equal bit for bit.

Both scans write DP row ``i`` into row ``i % h`` of a buffer whose
height ``h`` the caller picks. A caller that backtracks, as ``dtw``
does, keeps every row (``h = n_q``); a pruned call keeps two and returns
only the last row, so its memory follows the reference's width, not the
query's length times it.
"""

from __future__ import annotations

import math
from itertools import accumulate, cycle, islice

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

__all__ = ["accumulated_cost", "active_backend", "warmup"]

# Widest reference for which the scalar recurrence runs instead of the
# row scan. The row scan pays about six numpy calls per query row, the
# scalar loop a fraction of a microsecond per cell. On a 2-vCPU Xeon VM
# (CPython 3.11, 1 to 240 query frames) the scalar loop was the faster
# one up to 32-45 reference frames.
_SCALAR_MAX_WIDTH = 32

# Narrowest reference for which ``prune=True`` runs the pruned scan, and
# for which the online ring computes cells on demand. Below it the pruned
# lookup's fixed cost (a k-d tree query per new frame, the diagonal bound,
# a dozen numpy calls per row) outweighs the cells it skips. On a 2-vCPU
# Xeon VM (an online update of the ``stream`` benchmark's windows, cropped
# around the match) the pruned lookup took 1.28, 1.13, 0.99 and 0.88 times
# the full one's median time at 720, 1000, 1250 and 1500 columns.
_PRUNE_MIN_WIDTH = 1500

# The pruning bound: candidate diagonals, and the row stride of the
# coarse score that picks them. Rows extend rightward in chunks.
_BOUND_CANDIDATES = 32
_BOUND_ROW_STEP = 60
_EXTEND_CHUNK = 64

# Where no diagonal's coarse score is below this fraction of the mean,
# no diagonal stands out, the bound is loose and the full scan runs
# instead. The ratio was at most 0.112 on the ``stream`` benchmark's
# windows (every update of seeds 81-100) and 0.16-0.22 on such windows
# reversed in time, which still prune; it was 0.7 on uniform noise and 1
# on a constant cost, which prune nothing.
_SHARP_SCORE = 0.5

# Columns a lazy ring computes on each side of the nearest reference
# frames of the frames it admits. The scan reads a median 170-420
# columns of a row as its frame ages in the window, and each later
# ``cdist`` call costs 5-6 us before any work, as much as ~400 cells. On
# the ``stream`` benchmark's updates (seeds 11 and 23) margins of 200 and
# 300 gave the lowest median lookup time; 100 and 600 were 0.2-0.4 ms
# slower, with more calls or more cells.
_ADMIT_MARGIN = 300


class CostRows:
    """The cost rows of a query window, computed as the warping reads them.

    Row ``i`` holds the distances from query frame ``i``, oldest first, to
    every reference frame. Each row stores its frame, the interval of
    columns computed so far and, once known, its exact minimum. Reads go
    through :meth:`span`, ``rows[i]`` (the full row), :meth:`at` and
    :meth:`floors`; a read computes the missing columns first, so a row's
    interval grows as one contiguous hull.

    The rows form a ring that :meth:`admit` fills: the online loop admits
    each update's new frames, a cold pruned lookup its whole query at
    once. Against references of at least ``_PRUNE_MIN_WIDTH`` frames it
    keeps a k-d tree of the reference and computes only the columns
    within ``_ADMIT_MARGIN`` of the new frames' nearest reference frames.
    Narrower references get full rows, as the full scan reads all of
    them: ``cdist`` runs only from column ``head`` on, where ``head``
    frames at the start of the reference repeat its last ``head`` frames
    bit for bit, and copies the head's cells from their twins. Such a
    ring also keeps each row's running sum in ``sums``, computed once
    when the row is admitted, for the row scan.
    """

    def __init__(self, reference: np.ndarray, n_rows: int):
        self.reference = reference
        self.width = len(reference)
        self.cells = np.empty((n_rows, self.width))
        self.frames = np.empty((n_rows, reference.shape[1]))
        self.lo = [0] * n_rows
        self.hi = [0] * n_rows
        self.floor = np.full(n_rows, np.nan)
        lazy = self.width >= _PRUNE_MIN_WIDTH
        self.tree = cKDTree(reference) if lazy else None
        self.sums = None if lazy else np.empty((n_rows, self.width))
        self.head = 0 if lazy else _repeated_head(reference)
        self.order = list(range(n_rows))  # the slot of each row
        self.admitted = 0

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.span(i, 0, self.width)

    def __iter__(self):
        return iter(self.filled())

    def admit(self, new: np.ndarray) -> None:
        """Replace the oldest rows with those of the ``new`` frames."""
        n_rows = len(self.order)
        slots = [(self.admitted + k) % n_rows for k in range(len(new))]
        self.admitted += len(new)
        oldest = self.admitted % n_rows
        self.order = [*range(oldest, n_rows), *range(oldest)]
        self.frames[slots] = new
        a, b, known = 0, self.width, None
        if self.tree is None:
            h = self.head
            rows = np.empty((len(new), b))
            rows[:, h:] = cdist(new, self.reference[h:])
            rows[:, :h] = rows[:, b - h :]
            self.cells[slots] = rows
            self.sums[slots] = np.add.accumulate(rows, axis=1)
        else:
            dist, near = self.tree.query(new, k=2)
            nearest = near[:, 0]
            a = max(int(nearest.min()) - _ADMIT_MARGIN, 0)
            b = min(int(nearest.max()) + 1 + _ADMIT_MARGIN, b)
            # A frame's nearest cell is its row's minimum, bit for bit, when
            # the second nearest is farther by more than both routines'
            # rounding. With u = eps / 2 and C channels, cdist's distance is
            # within (C + 4) u / 2 of the exact one, relatively. The tree sums
            # the same squares in its own order and tracks each subtree's
            # distance by adding and subtracting one term per level, at most
            # 64 levels, so the distances it returns or prunes by are within
            # (C + 200) u. The nearest cell is then below every other cell
            # when the two tree distances differ by more than 4 (C + 200) u
            # of the larger; tiny covers subnormal results.
            gap = 2 * (new.shape[1] + 200) * np.finfo(float).eps
            known = dist[:, 1] - dist[:, 0] > gap * dist[:, 1] + np.finfo(float).tiny
            self.cells[slots, a:b] = cdist(new, self.reference[a:b])
        for s in slots:
            self.lo[s], self.hi[s] = a, b
        self.floor[slots] = (
            np.nan if known is None
            else np.where(known, self.cells[slots, nearest], np.nan)
        )

    def span(self, i: int, a: int, b: int) -> np.ndarray:
        """Row ``i`` with at least its columns ``a .. b - 1`` computed."""
        s = self.order[i]
        frame, lo, hi = self.frames[s : s + 1], self.lo[s], self.hi[s]
        if a < lo:
            cdist(frame, self.reference[a:lo], out=self.cells[s : s + 1, a:lo])
            self.lo[s] = a
        if b > hi:
            cdist(frame, self.reference[hi:b], out=self.cells[s : s + 1, hi:b])
            self.hi[s] = b
        return self.cells[s]

    def at(self, cols: np.ndarray) -> np.ndarray:
        """The cells ``(i, cols[i, k])`` of every row ``i``."""
        slots = np.array(self.order)
        lo = np.array(self.lo)[slots]
        hi = np.array(self.hi)[slots]
        first, last = cols.min(axis=1), cols.max(axis=1)
        for i in np.flatnonzero((first < lo) | (last >= hi)).tolist():
            self.span(i, int(first[i]), int(last[i]) + 1)
        return self.cells[slots[:, None], cols]

    def floors(self) -> np.ndarray:
        """The minimum of every row, from the full row where not known."""
        slots = np.array(self.order)
        for i in np.flatnonzero(np.isnan(self.floor[slots])).tolist():
            self.floor[slots[i]] = np.minimum.reduce(self[i])
        return self.floor[slots]

    def filled(self) -> list:
        """Every row, fully computed, oldest first; one ``cdist`` call
        computes the rows that are not."""
        todo = [s for s in self.order if self.lo[s] or self.hi[s] < self.width]
        if todo:
            self.cells[todo] = cdist(self.frames[todo], self.reference)
            for s in todo:
                self.lo[s], self.hi[s] = 0, self.width
        return [self.cells[s] for s in self.order]


def _repeated_head(reference: np.ndarray) -> int:
    """Length of the longest head of ``reference`` that repeats, bit for
    bit, as its tail, up to half its frames; an extended reference's is
    the copied tail of its cycle."""
    n = len(reference)
    half = (n + 1) // 2
    starts = np.flatnonzero((reference[half:] == reference[:1]).all(axis=1))
    for k in (half + starts).tolist():
        if reference[: n - k].tobytes() == reference[k:].tobytes():
            return n - k
    return 0


def _scalar_recurrence(cost: list, open_begin: bool) -> np.ndarray:
    # acc[i, j] = cost[i, j] + min(up, diag, left), cell by cell
    prev = cost[0] if open_begin else list(accumulate(cost[0]))
    flat = list(prev)
    for row in islice(cost, 1, None):
        left = diag = math.inf
        new = []
        for c, up in zip(row, prev):
            m = diag if diag < up else up
            diag = up
            if left < m:
                m = left
            left = c + m
            new.append(left)
        flat += new
        prev = new
    return np.array(flat).reshape(len(cost), len(prev))


def _full_row(prev, row, s, out, enter) -> None:
    # entering column k from the previous row costs enter[k]; any
    # further steps continue rightward along this row, so
    # out[j] = min_{k<=j} enter[k] + (s[j] - s[k]) with s = cumsum(row),
    # which the caller passes in
    enter[0] = prev[0]
    np.minimum(prev[1:], prev[:-1], out=enter[1:])
    np.add(enter, row, out=enter)
    np.subtract(enter, s, out=enter)
    np.minimum.accumulate(enter, out=out)
    np.add(out, s, out=out)


def _rows(acc: np.ndarray):
    """Pairs of (previous, current) rows of a DP buffer of ``len(acc)``
    rows, for DP rows 1, 2, ...: DP row ``i`` lives in row
    ``i % len(acc)``."""
    return zip(cycle(acc), islice(cycle(acc), 1, None))


def _row_scan(cost, open_begin: bool, height: int) -> np.ndarray:
    """The full row scan into a buffer of ``height`` rows, where DP row
    ``i`` lands in row ``i % height``; with ``height = n_q`` it is the
    whole matrix. ``cost`` is a cold call's ``(n_q, n_r)`` matrix or a
    :class:`CostRows` ring."""
    rows = iter(cost)
    first = next(rows)
    n_r = len(first)
    acc = np.empty((height, n_r))
    if open_begin:
        acc[0] = first
    else:
        np.add.accumulate(first, out=acc[0])
    enter = np.empty(n_r)
    s = np.empty(n_r)
    kept = cost.sums if isinstance(cost, CostRows) else None
    for i, ((prev, out), row) in enumerate(zip(_rows(acc), rows), 1):
        if kept is None:
            _full_row(prev, row, np.add.accumulate(row, out=s), out, enter)
        else:
            _full_row(prev, row, kept[cost.order[i]], out, enter)
    return acc


def _limits(cost, reach: float) -> tuple[list, float] | None:
    """Per-row pruning limits and the rounding tolerance ``tol``.

    ``cost`` is a :class:`CostRows`; ``reach`` bounds every cost. The
    bound ``U`` is the cheapest of ``_BOUND_CANDIDATES`` pure-diagonal
    paths, picked by their cost on every ``_BOUND_ROW_STEP``-th row, which
    is read in full. Row ``i`` keeps its cells up to
    ``U + tol - sum_{i' > i} min(cost[i'])``. ``None`` if no diagonal
    stands out (see ``_SHARP_SCORE``).
    """
    n_q, n_r = len(cost), cost.width
    width = n_r - n_q + 1
    score = np.zeros(width)
    for i in range(0, n_q, _BOUND_ROW_STEP):
        score += cost[i][i : i + width]
    if not score.min() < _SHARP_SCORE * score.mean():
        return None
    k = min(_BOUND_CANDIDATES, width)
    cols = np.argpartition(score, k - 1)[:k] + np.arange(n_q)[:, None]
    # summed row by row, as a loop over the rows would
    bound = np.add.reduce(cost.at(cols), axis=0).min()
    floors = cost.floors()
    # Rounding (eps = 2u). A computed cell is the rounded cost of one
    # warping path. In each row the path's value passes through at most
    # three roundings of numbers below v + S, where v is the cell's value
    # and S = n_r * reach bounds the row's running sums, and the running
    # sums are off by at most u * S per column the path spans in that
    # row. A path spans fewer than n_q + n_r cells, so a cell of value
    # v <= U + tol (tol is far below U + S) is within
    # d = 3 * eps * (n_q + n_r) * (U + S) of its path's exact cost, in
    # this scan and in the full one alike. The bound and the suffix sums
    # of the row minima each sum n_q non-negative terms, so they are off
    # by n_q * u * U at most. tol is twice 5 * d plus those, which is
    # what _pruned_scan needs; tiny covers subnormal results.
    tol = 32 * np.finfo(float).eps * (n_q + n_r) * (bound + n_r * reach)
    tol += np.finfo(float).tiny
    limits = np.zeros(n_q)
    np.add.accumulate(floors[:0:-1], out=limits[-2::-1])
    np.subtract(bound + tol, limits, out=limits)
    return limits.tolist(), float(tol)


def _pruned_scan(cost: CostRows, reach: float, height: int) -> np.ndarray:
    """Open-begin row scan over the cells that can reach the best match.

    Costs are non-negative, so a path through a cell above its row's
    limit ends above ``U + tol``: the later rows add at least their
    minima. Row ``i`` is computed from the first to one past the last
    live cell of row ``i - 1`` (every other row reuses the previous
    span instead of trimming it), then extended rightward while it stays
    within its limit; of each row it reads only the costs it computes. A
    span wider than half the row, or a full previous row with both ends
    live, is computed at full width, and where no diagonal stands out
    the full scan runs from the start.

    DP row ``i`` goes to row ``i % height`` of the returned buffer, as in
    :func:`_row_scan`. The cells a row skips must read ``inf`` to the
    rows after it, whatever an older row left in its buffer row: a row
    computed over a span sets the cell on each side of it to ``inf``, as
    the next row reads at most one cell beyond the span; a full-width row
    after a span first sets the rest of the previous row to ``inf``; and
    so does the last row. With ``height = n_q`` every skipped cell is
    ``inf``.

    Exactness, with ``d`` from :func:`_limits`: every cell of an exactly
    optimal path to a last-row column whose exact cost is within ``4 d``
    of the optimum stays within its limit, so the scan follows that path
    and lands within ``d`` of its cost. The full scan's cells are within
    ``d`` of their exact costs too. So if a single last-row column lies
    within ``tol`` (> ``4 d``) of the last row's minimum, it is the full
    scan's argmin; otherwise (a tie or a near tie) the full scan runs. A
    scan that narrowed no row is the full scan, bit for bit.
    """
    bounds = _limits(cost, reach)
    if bounds is None:
        return _row_scan(cost, True, height)
    limits, tol = bounds
    n_q, n_r = len(cost), cost.width
    acc = np.full((height, n_r), np.inf)
    acc[0] = cost[0]
    enter = np.empty(n_r)
    s = np.empty(n_r)
    lo, hi = 0, n_r  # the cells of the previous row that were computed
    narrowed = False
    for i, (prev, out) in enumerate(islice(_rows(acc), n_q - 1), 1):
        limit = limits[i - 1]
        if hi - lo == n_r and prev[0] <= limit and prev[-1] <= limit:
            row = cost[i]
            _full_row(prev, row, np.add.accumulate(row, out=s), out, enter)
            continue
        if i & 1 or hi - lo == n_r:
            live = prev[lo:hi] <= limit
            first = int(live.argmax())
            if not live[first]:
                return _row_scan(cost, True, height)
            a = lo + first
            b = min(hi + 1 - int(live[::-1].argmax()), n_r)
        else:
            a, b = lo, min(hi + 1, n_r)
        if 2 * (b - a) > n_r:
            prev[:lo] = np.inf
            prev[hi:] = np.inf
            row = cost[i]
            _full_row(prev, row, np.add.accumulate(row, out=s), out, enter)
            lo, hi = 0, n_r
            continue
        row = cost.span(i, a, b)
        # the row scan on columns a..b-1 with running sums from column a:
        # out[j] = min_{a<=k<=j} enter[k] - s[k - 1] + s[j], s[a - 1] = 0
        e, run, seg = enter[a:b], s[a:b], out[a:b]
        if a:
            np.minimum(prev[a:b], prev[a - 1 : b - 1], out=e)
            out[a - 1] = np.inf
        else:
            e[0] = prev[0]
            np.minimum(prev[1:b], prev[: b - 1], out=e[1:])
        np.add.accumulate(row[a:b], out=run)
        np.subtract(e[1:], run[:-1], out=e[1:])
        np.minimum.accumulate(e, out=seg)
        least, hi = seg[-1], b
        np.add(seg, run, out=seg)
        # beyond b only rightward steps remain: out[j] = least + s[j]
        while hi < n_r and out[hi - 1] <= limits[i]:
            end = min(hi + _EXTEND_CHUNK, n_r)
            s[hi:end] = cost.span(i, hi, end)[hi:end]
            np.add.accumulate(s[hi - 1 : end], out=s[hi - 1 : end])
            np.add(least, s[hi:end], out=out[hi:end])
            hi = end
        if hi < n_r:
            out[hi] = np.inf
        lo = a
        narrowed = True
    if narrowed:
        last = acc[(n_q - 1) % height]
        last[:lo] = np.inf
        last[hi:] = np.inf
        last = last[lo:hi]
        if np.count_nonzero(last <= last.min() + tol) > 1:
            return _row_scan(cost, True, height)
    return acc


def _reach(query: np.ndarray, reference: np.ndarray) -> float:
    """A bound on every frame distance: no distance exceeds the sum of
    the two frames' norms."""
    return float(
        math.sqrt(query.shape[1])
        * sum(max(x.max(), -x.min()) for x in (query, reference))
    )


def active_backend() -> str:
    """Name of the warping implementation: always ``"numpy"``.

    Kept only because the benchmark harness records it in its
    environment line; it goes once the harness states the
    implementation itself (ROADMAP items 5(g) and 7).
    """
    return "numpy"


def accumulated_cost(
    query: np.ndarray,
    reference: np.ndarray,
    open_begin: bool = False,
    cost=None,
    prune: bool = False,
) -> np.ndarray:
    """Accumulated-cost matrix of the warping recurrence, or with
    ``prune`` its last row.

    The cost of cell ``(i, j)`` is the Euclidean distance between query
    frame ``i`` and reference frame ``j``; allowed steps are one frame
    forward in the query, the reference, or both, with unit weights.
    With ``open_begin`` the query may start anywhere in the reference:
    the first row carries no accumulated prefix.

    ``cost``, if given, is a :class:`CostRows` ring of the query's frames
    against ``reference``, such as the one the online predictor keeps
    across calls; anything else raises ``ValueError``. Without it, a
    pruned scan (below) admits the query into a fresh ring and any other
    call runs one ``cdist``. A ring computes its missing cells as they
    are read: the pruned scan reads the full rows of its coarse score,
    the cells of its candidate diagonals and the span it keeps live in
    each row, and takes the row minima the ring knows exactly from the
    frames' nearest reference frames. Every other path, and every
    fallback of the pruned scan to the full one, first computes every
    row in full.

    ``prune`` serves callers that read only the last row's argmin: the
    scan keeps two DP rows and only the last row is returned, as a
    ``(1, n_r)`` array. With ``open_begin`` and at least
    ``_PRUNE_MIN_WIDTH`` reference frames (and no more query frames than
    reference frames), cells that cannot lie on a path to the best match
    may be skipped; the skipped cells of the last row are ``inf``. Its
    argmin, ties going to the smallest index, is exactly the one the
    unpruned matrix gives, and its value agrees to rounding; a computed
    cell is never below its unpruned value by more than rounding. In
    every other case the row is the unpruned matrix's last row. The
    costs must be the frame distances, as above: the rounding slack is
    derived from the frames' magnitudes.
    """
    query = np.asarray(query, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if query.ndim != 2 or reference.ndim != 2:
        raise ValueError("query and reference must be 2-D (frames x channels)")
    if query.shape[1] != reference.shape[1]:
        raise ValueError(
            f"channel counts differ: {query.shape[1]} vs {reference.shape[1]}"
        )
    if query.shape[0] < 1 or reference.shape[0] < 1:
        raise ValueError("query and reference must be non-empty")
    n_q, n_r = query.shape[0], reference.shape[0]
    pruned = prune and open_begin and n_r >= max(n_q, _PRUNE_MIN_WIDTH)
    if cost is None and pruned:
        cost = CostRows(reference, n_q)
        cost.admit(query)
    elif cost is None:
        cost = cdist(query, reference)
    elif not isinstance(cost, CostRows) or (len(cost), cost.width) != (n_q, n_r):
        raise ValueError(
            f"cost must be a CostRows of {n_q} rows of {n_r} reference frames"
        )
    height = 2 if prune else n_q
    if n_r <= _SCALAR_MAX_WIDTH:
        acc = _scalar_recurrence(np.asarray(cost).tolist(), bool(open_begin))
    elif pruned:
        acc = _pruned_scan(cost, _reach(query, reference), height)
    else:
        acc = _row_scan(cost, bool(open_begin), height)
    if not prune:
        return acc
    last = (n_q - 1) % len(acc)
    return acc[last : last + 1]


def warmup() -> None:
    """Run two tiny alignments so first-call costs stay off the hot path."""
    tiny = np.zeros((2, 1))
    accumulated_cost(tiny, tiny, open_begin=False)
    accumulated_cost(tiny, tiny, open_begin=True)
