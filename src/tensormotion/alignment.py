"""Dynamic time warping and phase lookup against a reference cycle.

Alignment operates on multichannel sequences; the per-cell cost is the
Euclidean distance between frames. Endpoint handling is configurable:
``open_begin`` lets the query start anywhere in the reference,
``open_end`` lets it stop anywhere (the cheapest final column wins, ties
going to the smallest index). Phase lookup for prediction uses both
relaxations: only where the most recent observed frames currently sit in
the reference matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tensormotion._dtw import (  # noqa: F401  (re-exported for convenience)
    accumulated_cost,
    active_backend,
    warmup,
)
from tensormotion.kinematics import MotionSequence

__all__ = [
    "WarpResult",
    "accumulated_cost",
    "active_backend",
    "dtw",
    "locate_in_reference",
    "warmup",
]


@dataclass(frozen=True)
class WarpResult:
    """Outcome of one alignment.

    ``path`` is a ``(K, 2)`` array of (query, reference) index pairs,
    monotone in both columns, starting at query frame 0 and ending at
    the last query frame. ``distance`` is the accumulated cost at the
    path end; summing the per-cell costs along the path reproduces it up
    to rounding.
    """

    distance: float
    path: np.ndarray
    matched_end: int


def _as_channels(seq: np.ndarray) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if not np.all(np.isfinite(arr)):
        raise ValueError("alignment input contains non-finite values")
    return arr


def _backtrack(acc: np.ndarray, j_end: int, open_begin: bool) -> np.ndarray:
    i, j = acc.shape[0] - 1, j_end
    path = [(i, j)]
    while True:
        if i == 0:
            if open_begin or j == 0:
                break
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag = acc[i - 1, j - 1]
            up = acc[i - 1, j]
            left = acc[i, j - 1]
            best = min(diag, up, left)
            # tie order: diagonal, then query-advancing, then reference
            if diag == best:
                i -= 1
                j -= 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    return np.array(path[::-1], dtype=np.int64)


def dtw(
    query: np.ndarray,
    reference: np.ndarray,
    open_end: bool = False,
    open_begin: bool = False,
) -> WarpResult:
    """Align ``query`` to ``reference``.

    Parameters
    ----------
    query, reference : np.ndarray
        ``(T, C)`` arrays (1-D input is treated as a single channel)
        with matching channel counts.
    open_end : bool
        Allow the query to end before the reference does.
    open_begin : bool
        Allow the query to start after the reference does.

    Returns
    -------
    WarpResult
        Distance, full warping path and the matched reference end index.
    """
    q = _as_channels(query)
    r = _as_channels(reference)
    acc = accumulated_cost(q, r, open_begin=open_begin)
    last = acc[-1]
    j_end = int(np.argmin(last)) if open_end else r.shape[0] - 1
    return WarpResult(
        distance=float(last[j_end]),
        path=_backtrack(acc, j_end, open_begin),
        matched_end=j_end,
    )


def locate_in_reference(
    window: MotionSequence, reference: MotionSequence, cost=None
) -> int:
    """Reference frame index where an observed window currently ends.

    Both sequences must share space and joint layout; the window may not
    be longer than the reference. Runs a both-ends-open alignment and
    returns the reference index matched to the window's final frame.
    ``cost``, if given, holds the window-to-reference frame distances
    already and is passed on to :func:`accumulated_cost`.

    Only the last row's argmin is read, so the alignment is pruned
    (``prune=True``): on references of at least ``_PRUNE_MIN_WIDTH``
    frames it skips the cells that cannot lie on a path to the best
    match, and the index is exactly the one the full matrix gives.
    """
    if window.space != reference.space:
        raise ValueError(
            f"space mismatch: window is {window.space}, "
            f"reference is {reference.space}"
        )
    if window.joint_names != reference.joint_names:
        raise ValueError("window and reference joint layouts differ")
    if window.n_frames > reference.n_frames:
        raise ValueError(
            f"window ({window.n_frames} frames) is longer than the "
            f"reference ({reference.n_frames} frames)"
        )
    q = window.frames.reshape(window.n_frames, -1)
    r = reference.frames.reshape(reference.n_frames, -1)
    acc = accumulated_cost(q, r, open_begin=True, cost=cost, prune=True)
    return int(np.argmin(acc[-1]))
