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


def _row_scan(cost, open_begin: bool) -> np.ndarray:
    # ``cost`` is any sequence of equal-length 1-D rows
    rows = iter(cost)
    first = next(rows)
    n_r = len(first)
    acc = np.empty((len(cost), n_r))
    if open_begin:
        acc[0] = first
    else:
        np.cumsum(first, out=acc[0])
    enter = np.empty(n_r)
    s = np.empty(n_r)
    for prev, out, row in zip(acc, acc[1:], rows):
        # entering column k from the previous row costs enter[k]; any
        # further steps continue rightward along this row, so
        # acc[i, j] = min_{k<=j} enter[k] + (s[j] - s[k]) with s=cumsum
        enter[0] = prev[0]
        np.minimum(prev[1:], prev[:-1], out=enter[1:])
        enter += row
        np.cumsum(row, out=s)
        enter -= s
        np.minimum.accumulate(enter, out=out)
        out += s
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
    if reference.shape[0] <= _SCALAR_MAX_WIDTH:
        return _scalar_recurrence(np.asarray(cost).tolist(), bool(open_begin))
    return _row_scan(cost, bool(open_begin))


def warmup() -> None:
    """Run two tiny alignments so first-call costs stay off the hot path."""
    tiny = np.zeros((2, 1))
    accumulated_cost(tiny, tiny, open_begin=False)
    accumulated_cost(tiny, tiny, open_begin=True)
