"""Error metrics for predicted motion.

The central metric is the sum, over all joints of a frame, of the
Euclidean distances between true and predicted positions. Positions are
in meters everywhere else in the package; this module converts to
centimeters at its boundary, so every reported number is in cm.

When batches overlap (the update stride is shorter than the horizon), a
frame is scored against the prediction made furthest in advance without
exceeding the requested horizon; that is the prediction a real-time
consumer would have had to act on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    MotionSequence,
    Skeleton,
    fix_segment_lengths,
    from_joint_angles,
    to_joint_angles,
)

__all__ = [
    "SeeSeries",
    "backtransform_error",
    "evaluate_predictions",
    "hold_pose_predictions",
    "pick_latest",
    "see",
]

METERS_TO_CM = 100.0

SUMMARY_FIELDS = ("min", "q1", "median", "mean", "q3", "max")


@dataclass(frozen=True)
class SeeSeries:
    """Per-frame summed Euclidean error, in centimeters.

    ``frame_indices`` records which absolute frames the values belong
    to when the series is sparse (not every frame gets a prediction).
    """

    values: np.ndarray
    frame_indices: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("error values must be finite and non-negative")
        object.__setattr__(self, "values", values)
        if self.frame_indices is not None:
            idx = np.asarray(self.frame_indices, dtype=np.int64)
            if idx.shape != values.shape:
                raise ValueError("frame_indices must match values in length")
            object.__setattr__(self, "frame_indices", idx)

    def summary(self) -> dict[str, float]:
        """Six-number summary; quartiles interpolate linearly."""
        v = self.values
        return {
            "min": float(v.min()),
            "q1": float(np.quantile(v, 0.25)),
            "median": float(np.quantile(v, 0.5)),
            "mean": float(v.mean()),
            "q3": float(np.quantile(v, 0.75)),
            "max": float(v.max()),
        }


def see(truth: MotionSequence, pred: MotionSequence) -> SeeSeries:
    """Summed per-frame Euclidean error between two Cartesian sequences."""
    if truth.space != SPACE_CARTESIAN or pred.space != SPACE_CARTESIAN:
        raise ValueError("the error metric is defined on Cartesian data")
    if truth.joint_names != pred.joint_names:
        raise ValueError("joint layouts differ")
    if truth.n_frames != pred.n_frames:
        raise ValueError(
            f"frame counts differ: {truth.n_frames} vs {pred.n_frames}"
        )
    dist = np.linalg.norm(truth.frames - pred.frames, axis=2)
    return SeeSeries(values=dist.sum(axis=1) * METERS_TO_CM)


def backtransform_error(seq: MotionSequence, skeleton: Skeleton) -> SeeSeries:
    """Reconstruction error of the angle round trip alone.

    Converts to angles, freezes segment lengths to their medians,
    back-transforms, and measures the error against the original. This
    is the floor any angle-space predictor inherits: with rigid
    segments it vanishes, with length jitter each frame's error is
    bounded by the summed per-segment length deviations.
    """
    angles, _ = to_joint_angles(seq, skeleton)
    fixed = fix_segment_lengths(seq, skeleton)
    recon = from_joint_angles(angles, fixed)
    return see(seq, recon)


def pick_latest(
    stamps,
    horizon_frames: int,
    n_frames: int,
    max_offset: int | None = None,
) -> dict[int, tuple[int, int]]:
    """Assign each predictable frame its scoring prediction.

    ``stamps`` are the last-observed-frame indices of the update
    schedule, in order. Returns ``frame -> (source_row, offset)`` where
    the offset is the largest value not exceeding ``horizon_frames``
    (and ``max_offset``, when the source only reaches that far) for
    which ``stamps[source_row] + offset == frame``.
    """
    if horizon_frames < 1:
        raise ValueError("horizon_frames must be at least 1")
    cap = horizon_frames if max_offset is None else min(horizon_frames, max_offset)
    picked: dict[int, tuple[int, int]] = {}
    for row, s in enumerate(stamps):
        for h in range(1, cap + 1):
            f = s + h
            if 0 <= f < n_frames and (f not in picked or h > picked[f][1]):
                picked[f] = (row, h)
    return picked


def _series_from_coords(picked, coords_at, truth: MotionSequence) -> SeeSeries:
    if not picked:
        raise ValueError("no predicted frame falls inside the truth sequence")
    frames = np.array(sorted(picked), dtype=np.int64)
    coords = np.stack([coords_at(*picked[int(f)]) for f in frames])
    dist = np.linalg.norm(truth.frames[frames] - coords, axis=2)
    return SeeSeries(values=dist.sum(axis=1) * METERS_TO_CM, frame_indices=frames)


def evaluate_predictions(
    batches, truth: MotionSequence, horizon_frames: int
) -> SeeSeries:
    """Error of a prediction run at one look-ahead horizon.

    ``batches`` is a sequence of
    :class:`~tensormotion.predictor.PredictionBatch`; ``truth`` the
    Cartesian sequence the stream was taken from, in the same joint
    order as the predictions.
    """
    if truth.space != SPACE_CARTESIAN:
        raise ValueError("truth must be Cartesian")
    batches = list(batches)
    if not batches:
        raise ValueError("no batches to evaluate")
    stamps = [b.last_observed_frame for b in batches]
    reach = batches[0].coordinates.shape[0]
    picked = pick_latest(stamps, horizon_frames, truth.n_frames, max_offset=reach)
    return _series_from_coords(
        picked, lambda row, h: batches[row].coordinates[h - 1], truth
    )


def hold_pose_predictions(
    truth: MotionSequence, stamps, horizon_frames: int
) -> SeeSeries:
    """Zero-motion baseline under the exact scoring of
    :func:`evaluate_predictions`.

    At every stamp the last observed pose is carried forward unchanged;
    per absolute frame the largest admissible look-ahead wins.
    """
    if truth.space != SPACE_CARTESIAN:
        raise ValueError("truth must be Cartesian")
    stamps = list(stamps)
    picked = pick_latest(stamps, horizon_frames, truth.n_frames)
    return _series_from_coords(
        picked, lambda row, h: truth.frames[stamps[row]], truth
    )
