"""Segmentation of repetitive motion and reference-cycle construction.

A single angle channel (one joint, one axis) drives segmentation: the
channel is low-pass filtered, its peaks are detected, and cycle
boundaries are placed at the signal minima between the peak closing one
cycle and the peak opening the next. Detected cycles are resampled to a
common length and averaged frame by frame into a reference cycle with a
per-timestep spread estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tensormotion.kinematics import SPACE_JOINT_ANGLE, MotionSequence

__all__ = [
    "ReferenceCycle",
    "build_reference",
    "detect_cycles",
    "extend_reference",
    "resample_cycle",
    "smooth_signal",
]


def smooth_signal(signal: np.ndarray, cutoff: float) -> np.ndarray:
    """Low-pass filter a 1-D signal by truncating its Fourier spectrum.

    Parameters
    ----------
    signal : np.ndarray
        Real-valued samples, at least 4 of them.
    cutoff : float
        Fraction of the one-sided spectrum to retain, in ``(0, 1]``.
        The retained bin count is ``ceil(cutoff * n_bins)`` and never
        drops below one, so the mean always survives; ``cutoff=1``
        leaves the signal unchanged.

    Returns
    -------
    np.ndarray
        Filtered signal of the same length.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or signal.size < 4:
        raise ValueError("signal must be 1-D with at least 4 samples")
    if not 0 < cutoff <= 1:
        raise ValueError(f"cutoff must lie in (0, 1], got {cutoff}")
    spectrum = np.fft.rfft(signal)
    keep = max(1, math.ceil(cutoff * len(spectrum)))
    spectrum[keep:] = 0.0
    return np.fft.irfft(spectrum, n=signal.size)


def _dominant_period(signal: np.ndarray) -> float:
    """Period (in samples) of the strongest non-constant spectral line."""
    spectrum = np.abs(np.fft.rfft(signal - signal.mean()))
    if len(spectrum) < 2 or not spectrum[1:].any():
        raise ValueError("signal has no oscillation to segment")
    k = 1 + int(np.argmax(spectrum[1:]))
    return signal.size / k


def _find_peaks(x: np.ndarray, height: float, distance: float) -> np.ndarray:
    """Peak indices of ``x``, equal to
    ``scipy.signal.find_peaks(x, height=height, distance=distance)[0]``.

    The rule is stated in :func:`detect_cycles`. ``distance`` must be at
    least 1.
    """
    before, after = x[:-1], x[1:]
    # the runs between two value changes span [left + 1, right]
    edge = np.flatnonzero(before != after)
    left, right = edge[:-1], edge[1:]
    run = (before < after)[left] & (after < before)[right]
    peaks = (left[run] + 1 + right[run]) // 2
    peaks = peaks[x[peaks] >= height]
    # peaks lie on whole samples, so closer than distance is closer than
    # distance rounded up
    lo = np.searchsorted(peaks, peaks - distance, side="right").tolist()
    hi = np.searchsorted(peaks, peaks + distance, side="left").tolist()
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1].tolist():
        if keep[j]:
            keep[lo[j] : hi[j]] = False
            keep[j] = True
    return peaks[keep]


def detect_cycles(
    signal: np.ndarray,
    peaks_per_cycle: int,
    threshold: float | None = None,
    min_peak_distance: int | None = None,
) -> list[tuple[int, int]]:
    """Split a periodic signal into cycles of ``peaks_per_cycle`` peaks.

    A peak is a run of equal samples higher than the samples on either
    side, placed at the run's middle sample (rounded down); a run that
    touches either end of the signal is not a peak. Peaks below
    ``threshold`` (default: mean plus half a standard deviation) are
    dropped. The rest are thinned by ``min_peak_distance`` (default: a
    quarter of the dominant period; it must be at least 1 and is
    rounded up): taking the highest peak first, each kept peak removes
    every remaining peak closer than that many samples. Equal heights
    are taken in ``np.argsort`` order, as ``scipy.signal.find_peaks``
    does.

    The boundary after each cycle-closing peak is the signal minimum
    between it and the next peak, or the minimum of the remaining tail
    when no peak follows. The first cycle starts at the minimum before
    the first peak.

    Returns
    -------
    list of (start, end)
        Half-open frame ranges, consecutive and non-overlapping. Only
        complete cycles are returned; a trailing partial cycle is
        dropped.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if peaks_per_cycle < 1:
        raise ValueError("peaks_per_cycle must be at least 1")
    if threshold is None:
        threshold = float(signal.mean() + 0.5 * signal.std())
    if min_peak_distance is None:
        min_peak_distance = max(1, round(0.25 * _dominant_period(signal)))
    elif not min_peak_distance >= 1:
        raise ValueError(
            f"min_peak_distance must be at least 1, got {min_peak_distance}"
        )
    peaks = _find_peaks(signal, threshold, min_peak_distance)
    if len(peaks) < peaks_per_cycle:
        raise ValueError(
            f"found {len(peaks)} peaks, need {peaks_per_cycle} for one cycle"
        )
    n_cycles = len(peaks) // peaks_per_cycle
    closing = peaks[peaks_per_cycle - 1 :: peaks_per_cycle][:n_cycles]
    start = int(np.argmin(signal[: peaks[0] + 1]))
    bounds = []
    for i, c in enumerate(closing):
        nxt = (i + 1) * peaks_per_cycle
        stop = peaks[nxt] if nxt < len(peaks) else signal.size - 1
        bounds.append(int(c + np.argmin(signal[c : stop + 1])))
    ranges = []
    prev = start
    for b in bounds:
        if b > prev:
            ranges.append((prev, b))
            prev = b
    return ranges


def resample_cycle(seq: MotionSequence, target_frames: int) -> MotionSequence:
    """Linearly resample a sequence to ``target_frames`` frames.

    Every channel (and the root track) is interpolated over a common
    normalized time axis. The nominal frame rate is carried over
    unchanged; resampling rescales the cycle's time base, it does not
    change the capture rate the data claims.
    """
    if target_frames < 2:
        raise ValueError("target_frames must be at least 2")
    if seq.n_frames < 2:
        raise ValueError("need at least 2 frames to resample")
    pos = np.linspace(0.0, seq.n_frames - 1.0, target_frames)
    base = np.arange(seq.n_frames, dtype=float)
    flat = seq.frames.reshape(seq.n_frames, -1)
    out = np.empty((target_frames, flat.shape[1]))
    for c in range(flat.shape[1]):
        out[:, c] = np.interp(pos, base, flat[:, c])
    root = None
    if seq.root_track is not None:
        root = np.column_stack(
            [np.interp(pos, base, seq.root_track[:, k]) for k in range(3)]
        )
    return MotionSequence(
        frames=out.reshape(target_frames, seq.n_joints, 3),
        frame_rate=seq.frame_rate,
        space=seq.space,
        joint_names=seq.joint_names,
        root_track=root,
    )


@dataclass(frozen=True)
class ReferenceCycle:
    """Frame-wise mean cycle plus per-timestep spread.

    ``angles`` holds the mean angle trajectory (with the mean root track)
    and ``per_timestep_std`` the population standard deviation across
    source cycles, shape ``(T, n_segments, 3)``. With a single source
    cycle the spread is identically zero.
    """

    angles: MotionSequence
    per_timestep_std: np.ndarray
    source_cycle_count: int

    def __post_init__(self):
        std = np.asarray(self.per_timestep_std, dtype=float)
        if std.shape != self.angles.frames.shape:
            raise ValueError(
                f"std shape {std.shape} does not match angles "
                f"{self.angles.frames.shape}"
            )
        if np.any(std < 0) or not np.all(np.isfinite(std)):
            raise ValueError("per_timestep_std must be finite and non-negative")
        if self.angles.space != SPACE_JOINT_ANGLE:
            raise ValueError("reference cycles live in angle space")
        if self.source_cycle_count < 1:
            raise ValueError("source_cycle_count must be at least 1")
        object.__setattr__(self, "per_timestep_std", std)

    @property
    def length_frames(self) -> int:
        return self.angles.n_frames


def build_reference(
    cycles: list[MotionSequence], target_frames: int | None = None
) -> ReferenceCycle:
    """Average angle-space cycles into a reference cycle.

    Each cycle is resampled to ``target_frames`` (default: the median
    cycle length, even counts rounding via ``np.median``) and the stack
    is reduced frame by frame: mean for angles and root track,
    population standard deviation (``ddof=0``) for the spread.
    """
    if not cycles:
        raise ValueError("need at least one cycle")
    layouts = {(c.space, c.joint_names, c.frame_rate) for c in cycles}
    if len(layouts) != 1:
        raise ValueError("cycles disagree on space, joints, or frame rate")
    if cycles[0].space != SPACE_JOINT_ANGLE:
        raise ValueError("reference cycles are built from angle-space data")
    if target_frames is None:
        target_frames = int(round(float(np.median([c.n_frames for c in cycles]))))
        target_frames = max(target_frames, 2)
    resampled = [resample_cycle(c, target_frames) for c in cycles]
    stack = np.stack([c.frames for c in resampled])
    roots = np.stack([c.root_track for c in resampled])
    mean_seq = MotionSequence(
        frames=stack.mean(axis=0),
        frame_rate=cycles[0].frame_rate,
        space=SPACE_JOINT_ANGLE,
        joint_names=cycles[0].joint_names,
        root_track=roots.mean(axis=0),
    )
    return ReferenceCycle(
        angles=mean_seq,
        per_timestep_std=stack.std(axis=0, ddof=0),
        source_cycle_count=len(cycles),
    )


def extend_reference(ref: ReferenceCycle, history_frames: int) -> MotionSequence:
    """Prepend the reference's own tail to cover windows that straddle
    the cycle boundary.

    The extended sequence has ``history_frames + T`` frames; index
    ``history_frames`` is the cycle start. ``history_frames`` may not
    exceed the cycle length (one wrap is enough because model windows
    are never longer than the cycle).
    """
    if not 0 <= history_frames <= ref.length_frames:
        raise ValueError(
            f"history_frames must lie in [0, {ref.length_frames}], "
            f"got {history_frames}"
        )
    frames = ref.angles.frames
    root = ref.angles.root_track
    ext = np.concatenate([frames[frames.shape[0] - history_frames :], frames])
    ext_root = np.concatenate([root[root.shape[0] - history_frames :], root])
    return MotionSequence(
        frames=ext,
        frame_rate=ref.angles.frame_rate,
        space=SPACE_JOINT_ANGLE,
        joint_names=ref.angles.joint_names,
        root_track=ext_root,
    )
