"""Accumulated-cost kernels for dynamic time warping.

The recurrence is the subsequence DTW of Müller, *Information Retrieval
for Music and Motion* (2007), ch. 4. Two interchangeable implementations
compute it: a numba-compiled kernel that fuses the Euclidean cost matrix
with the dynamic program, and a numpy fallback. The numpy path builds
the cost matrix with one ``scipy.spatial.distance.cdist`` call and then
picks its dynamic program by reference length. Up to
``_SCALAR_MAX_WIDTH`` reference frames it runs the plain scalar
recurrence on Python floats, in the same order of operations as the
numba kernel; there, per-call numpy overhead would dominate. Longer
references get a vectorized min-plus row scan. Both compute the cost of
cell ``(i, j)`` from coordinate differences, so aligning a sequence with
itself yields an exactly zero diagonal on every path.

A caller that already holds the cost rows can pass them in: the rows of
``cdist`` are independent, so a row computed for an earlier query that
shared the frame is bit-identical to the one a cold call would compute.
The online predictor keeps such rows in a ring across updates and hands
them over oldest first as a list of row views; the row scan reads any
sequence of rows and runs its ufuncs in place on two scratch rows, so
the rows are never copied into one matrix.

Backend selection: the ``TENSORMOTION_BACKEND`` environment variable
(``auto``, ``numba`` or ``numpy``, read at import) picks the default;
:func:`use_backend` switches at runtime.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate, islice

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "ENV_VAR",
    "accumulated_cost",
    "active_backend",
    "available_backends",
    "use_backend",
    "warmup",
]

ENV_VAR = "TENSORMOTION_BACKEND"

# Widest reference for which the numpy backend uses the scalar
# recurrence. The row scan pays about six numpy calls per query row, the
# scalar loop a fraction of a microsecond per cell. On a 2-vCPU Xeon VM
# (CPython 3.11, 1 to 240 query frames) the scalar loop was the faster
# one up to 32-45 reference frames.
_SCALAR_MAX_WIDTH = 32


def _accumulate_numpy(
    query: np.ndarray, reference: np.ndarray, open_begin: bool, cost=None
) -> np.ndarray:
    if cost is None:
        cost = cdist(query, reference)
    if reference.shape[0] <= _SCALAR_MAX_WIDTH:
        return _scalar_recurrence(np.asarray(cost).tolist(), open_begin)
    return _row_scan(cost, open_begin)


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


try:  # numba is optional at runtime; the numpy path covers its absence
    if os.environ.get(ENV_VAR, "auto") == "numpy":
        numba = None
    else:
        import numba
except ImportError:
    numba = None

if numba is not None:

    @numba.njit(cache=True)
    def _accumulate_numba_kernel(query, reference, open_begin):
        n_q, n_channels = query.shape
        n_r = reference.shape[0]
        cost = np.empty((n_q, n_r))
        for i in range(n_q):
            for j in range(n_r):
                s = 0.0
                for k in range(n_channels):
                    d = query[i, k] - reference[j, k]
                    s += d * d
                cost[i, j] = np.sqrt(s)
        acc = np.empty((n_q, n_r))
        if open_begin:
            for j in range(n_r):
                acc[0, j] = cost[0, j]
        else:
            acc[0, 0] = cost[0, 0]
            for j in range(1, n_r):
                acc[0, j] = acc[0, j - 1] + cost[0, j]
        for i in range(1, n_q):
            acc[i, 0] = acc[i - 1, 0] + cost[i, 0]
            for j in range(1, n_r):
                m = acc[i - 1, j]
                if acc[i, j - 1] < m:
                    m = acc[i, j - 1]
                if acc[i - 1, j - 1] < m:
                    m = acc[i - 1, j - 1]
                acc[i, j] = cost[i, j] + m
        return acc

    def _accumulate_numba(query, reference, open_begin):
        return _accumulate_numba_kernel(
            np.ascontiguousarray(query), np.ascontiguousarray(reference), open_begin
        )


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if numba is not None else ("numpy",)


def _resolve(name: str) -> str:
    if name == "auto":
        return "numba" if numba is not None else "numpy"
    if name == "numpy":
        return "numpy"
    if name == "numba":
        if numba is None:
            raise RuntimeError(
                f"numba backend requested via {ENV_VAR} but numba is unavailable"
            )
        return "numba"
    raise ValueError(f"unknown backend {name!r}; use auto, numba or numpy")


_active = _resolve(os.environ.get(ENV_VAR, "auto"))


def active_backend() -> str:
    """Name of the backend that will run the next alignment."""
    return _active


def use_backend(name: str) -> str:
    """Switch the alignment backend; returns the previous one."""
    global _active
    previous = _active
    _active = _resolve(name)
    return previous


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
    rows, such as views into a ring of rows kept across calls. The numpy
    backend then skips computing them; rows that ``cdist`` computed for
    the same frame pair are bit-identical, so the result is too. The
    fused numba kernel ignores ``cost``. The full matrix is returned
    either way.
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
    if cost is not None and (
        len(cost) != query.shape[0]
        or any(np.shape(row) != reference.shape[:1] for row in cost)
    ):
        raise ValueError(
            f"cost must hold {query.shape[0]} rows of {reference.shape[0]} "
            "reference frames"
        )
    if _active == "numba":
        return _accumulate_numba(query, reference, bool(open_begin))
    return _accumulate_numpy(query, reference, bool(open_begin), cost)


def warmup() -> None:
    """Trigger JIT compilation so first-use latency stays off hot paths."""
    tiny = np.zeros((2, 1))
    accumulated_cost(tiny, tiny, open_begin=False)
    accumulated_cost(tiny, tiny, open_begin=True)
