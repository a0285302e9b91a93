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

A caller that already holds the cost rows can pass them in: the rows of
``cdist`` are independent, so a row computed for an earlier query that
shared the frame is bit-identical to the one a cold call would compute.
The online predictor keeps such rows in a ring across updates and hands
them over oldest first as a list of row views; the row scan reads any
sequence of rows and runs its ufuncs in place on two scratch rows, so
the rows are never copied into one matrix.

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
from the rest: elsewhere its fixed cost would not pay off.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice

import numpy as np
from scipy.spatial.distance import cdist

__all__ = ["accumulated_cost", "active_backend", "warmup"]

# Widest reference for which the scalar recurrence runs instead of the
# row scan. The row scan pays about six numpy calls per query row, the
# scalar loop a fraction of a microsecond per cell. On a 2-vCPU Xeon VM
# (CPython 3.11, 1 to 240 query frames) the scalar loop was the faster
# one up to 32-45 reference frames.
_SCALAR_MAX_WIDTH = 32

# Narrowest reference for which ``prune=True`` runs the pruned scan.
# Below it the pruned scan's fixed cost (row minima, the diagonal bound,
# a dozen numpy calls per row) outweighs the cells it skips. On a 2-vCPU
# Xeon VM (240 query frames of the ``stream`` benchmark) the two broke
# even near 1500 reference frames.
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


def _full_row(prev, row, out, enter, s) -> None:
    # entering column k from the previous row costs enter[k]; any
    # further steps continue rightward along this row, so
    # out[j] = min_{k<=j} enter[k] + (s[j] - s[k]) with s = cumsum(row)
    enter[0] = prev[0]
    np.minimum(prev[1:], prev[:-1], out=enter[1:])
    np.add(enter, row, out=enter)
    np.add.accumulate(row, out=s)
    np.subtract(enter, s, out=enter)
    np.minimum.accumulate(enter, out=out)
    np.add(out, s, out=out)


def _row_scan(cost, open_begin: bool) -> np.ndarray:
    # ``cost`` is any sequence of equal-length 1-D rows
    rows = iter(cost)
    first = next(rows)
    n_r = len(first)
    acc = np.empty((len(cost), n_r))
    if open_begin:
        acc[0] = first
    else:
        np.add.accumulate(first, out=acc[0])
    enter = np.empty(n_r)
    s = np.empty(n_r)
    for prev, out, row in zip(acc, acc[1:], rows):
        _full_row(prev, row, out, enter, s)
    return acc


def _limits(cost, reach: float) -> tuple[list, float] | None:
    """Per-row pruning limits and the rounding tolerance ``tol``.

    ``reach`` bounds every cost. The bound ``U`` is the cheapest of
    ``_BOUND_CANDIDATES`` pure-diagonal paths, picked by their cost on
    every ``_BOUND_ROW_STEP``-th row. Row ``i`` keeps its cells up to
    ``U + tol - sum_{i' > i} min(cost[i'])``. ``None`` if no diagonal
    stands out (see ``_SHARP_SCORE``).
    """
    n_q, n_r = len(cost), len(cost[0])
    width = n_r - n_q + 1
    score = np.zeros(width)
    for i in range(0, n_q, _BOUND_ROW_STEP):
        score += cost[i][i : i + width]
    if not score.min() < _SHARP_SCORE * score.mean():
        return None
    k = min(_BOUND_CANDIDATES, width)
    cols = np.argpartition(score, k - 1)[:k] + np.arange(n_q)[:, None]
    diagonal = np.zeros(k)
    floors = np.empty(n_q)
    for i, (row, c) in enumerate(zip(cost, cols)):
        floors[i] = np.minimum.reduce(row)
        diagonal += row[c]
    bound = diagonal.min()
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


def _pruned_scan(cost, reach: float) -> np.ndarray:
    """Open-begin row scan over the cells that can reach the best match.

    Costs are non-negative, so a path through a cell above its row's
    limit ends above ``U + tol``: the later rows add at least their
    minima. Row ``i`` is computed from the first to one past the last
    live cell of row ``i - 1`` (every other row reuses the previous
    span instead of trimming it), then extended rightward while it stays
    within its limit; the cells it skips are ``inf``. A span wider than
    half the row, or a full previous row with both ends live, is
    computed at full width, and where no diagonal stands out the full
    scan runs from the start.

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
        return _row_scan(cost, True)
    limits, tol = bounds
    n_q, n_r = len(cost), len(cost[0])
    acc = np.empty((n_q, n_r))
    acc[0] = cost[0]
    enter = np.empty(n_r)
    s = np.empty(n_r)
    lo, hi = 0, n_r  # the cells of the previous row that were computed
    narrowed = False
    rows = islice(cost, 1, None)
    for i, (prev, out, row) in enumerate(zip(acc, acc[1:], rows), 1):
        limit = limits[i - 1]
        if hi - lo == n_r and prev[0] <= limit and prev[-1] <= limit:
            _full_row(prev, row, out, enter, s)
            continue
        if i & 1 or hi - lo == n_r:
            live = prev[lo:hi] <= limit
            first = int(live.argmax())
            if not live[first]:
                return _row_scan(cost, True)
            a = lo + first
            b = min(hi + 1 - int(live[::-1].argmax()), n_r)
        else:
            a, b = lo, min(hi + 1, n_r)
        if 2 * (b - a) > n_r:
            _full_row(prev, row, out, enter, s)
            lo, hi = 0, n_r
            continue
        # the row scan on columns a..b-1 with running sums from column a:
        # out[j] = min_{a<=k<=j} enter[k] - s[k - 1] + s[j], s[a - 1] = 0
        e, run, seg = enter[a:b], s[a:b], out[a:b]
        if a:
            np.minimum(prev[a:b], prev[a - 1 : b - 1], out=e)
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
            s[hi:end] = row[hi:end]
            np.add.accumulate(s[hi - 1 : end], out=s[hi - 1 : end])
            np.add(least, s[hi:end], out=out[hi:end])
            hi = end
        if not narrowed:  # later rows keep inf wherever they skip
            out[:a] = np.inf
            out[hi:] = np.inf
            acc[i + 1 :] = np.inf
            narrowed = True
        lo = a
    if narrowed:
        last = acc[-1, lo:hi]
        if np.count_nonzero(last <= last.min() + tol) > 1:
            return _row_scan(cost, True)
    return acc


def active_backend() -> str:
    """Name of the warping implementation: always ``"numpy"``.

    Kept only because the benchmark harness records it in its
    environment line; it goes once the harness states the
    implementation itself (ROADMAP item 6).
    """
    return "numpy"


def accumulated_cost(
    query: np.ndarray,
    reference: np.ndarray,
    open_begin: bool = False,
    cost=None,
    prune: bool = False,
) -> np.ndarray:
    """Accumulated-cost matrix of the warping recurrence.

    The cost of cell ``(i, j)`` is the Euclidean distance between query
    frame ``i`` and reference frame ``j``; allowed steps are one frame
    forward in the query, the reference, or both, with unit weights.
    With ``open_begin`` the query may start anywhere in the reference:
    the first row carries no accumulated prefix.

    ``cost``, if given, holds those distances already: a
    ``(query frames, reference frames)`` array or a sequence of that many
    rows, such as views into a ring of rows kept across calls, and
    ``cdist`` is skipped; rows that ``cdist`` computed for the same frame
    pair are bit-identical, so the result is too. The full matrix is
    returned either way.

    ``prune`` serves callers that read only the last row's argmin. With
    ``open_begin`` and at least ``_PRUNE_MIN_WIDTH`` reference frames
    (and no more query frames than reference frames), the matrix keeps
    its shape, but cells that cannot lie on a path to the best match may
    be skipped and left ``inf``. The argmin of the last row, ties going
    to the smallest index, is exactly the one the unpruned matrix gives,
    and its value agrees to rounding; a computed cell is never below its
    unpruned value by more than rounding. In every other case ``prune``
    changes nothing. The costs must be the frame distances, as above:
    the rounding slack is derived from the frames' magnitudes.
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
    if cost is None:
        cost = cdist(query, reference)
    elif len(cost) != query.shape[0] or any(
        np.shape(row) != reference.shape[:1] for row in cost
    ):
        raise ValueError(
            f"cost must hold {query.shape[0]} rows of {reference.shape[0]} "
            "reference frames"
        )
    n_q, n_r = len(cost), reference.shape[0]
    if n_r <= _SCALAR_MAX_WIDTH:
        return _scalar_recurrence(np.asarray(cost).tolist(), bool(open_begin))
    if prune and open_begin and n_r >= max(n_q, _PRUNE_MIN_WIDTH):
        # no distance exceeds the sum of the two frames' norms
        reach = math.sqrt(query.shape[1]) * sum(
            max(x.max(), -x.min()) for x in (query, reference)
        )
        return _pruned_scan(cost, float(reach))
    return _row_scan(cost, bool(open_begin))


def warmup() -> None:
    """Run two tiny alignments so first-call costs stay off the hot path."""
    tiny = np.zeros((2, 1))
    accumulated_cost(tiny, tiny, open_begin=False)
    accumulated_cost(tiny, tiny, open_begin=True)
