"""Correctness checks on the program's outputs.

Every check compares an output against a value the benchmark computes
itself, outside the timed region. Each returns a list of failure
messages, empty when the output passes, so a run can report every
failing check at once.
"""

from __future__ import annotations

import math

import numpy as np

# Largest tolerated deviation of a Monte-Carlo band entry from the closed
# form, in units of the relative standard error of a standard deviation
# estimated from n draws, 1/sqrt(2(n-1)). A probe at 1000 draws saw at
# most 4.2 units over 348k entries.
BAND_MAX_UNITS = 6.0
# Largest tolerated |mean(band^2 / closed^2) - 1|. The mean of unbiased
# variance ratios is 1; a band scaled by s moves it to s^2.
BAND_MEAN_RATIO_TOL = 0.1
# Smallest share of the fitted window's true shifted entries that the
# 95% posterior interval must cover.
MIN_POSTERIOR_COVERAGE = 0.90
# Localisation allowance of the anchor check, as a share of the cycle.
# Warping a window from a cycle up to 10% faster or slower than the
# reference put its end up to 12 frames (2.4%) off on 480-frame cycles
# and up to 126 frames (2.6%) off on 4760-frame cycles.
PHASE_SLACK = 0.05


def nearest_anchor_table(anchors_ref: np.ndarray, cycle_frames: int) -> np.ndarray:
    """The model index that ``select_coefficient``'s rule picks for a
    match at every position ``0 .. cycle_frames - 1`` of the cycle.

    ``anchors_ref`` are the anchors' positions in the cycle (extended
    index minus the history length), increasing. As in the program, a
    position before the first anchor is moved one cycle forward, the
    rule does not wrap otherwise, and ties go to the earlier anchor.
    """
    anchors = np.asarray(anchors_ref, dtype=float)
    pos = np.arange(cycle_frames, dtype=float)
    pos = np.where(pos < anchors[0], pos + cycle_frames, pos)
    return np.abs(pos[:, None] - anchors).argmin(axis=1)


def check_anchor_phase(
    chosen: np.ndarray,
    true_phase: np.ndarray,
    anchors_ref: np.ndarray,
    cycle_frames: int,
    slack_frames: float,
) -> list[str]:
    """Each chosen model is one the nearest-anchor rule picks for some
    position within ``slack_frames`` of the true phase, measured around
    the cycle: the match may be off by the localisation error, not by a
    whole anchor."""
    table = nearest_anchor_table(anchors_ref, cycle_frames)
    true_pos = np.asarray(true_phase, dtype=float) * cycle_frames
    off = np.empty(len(true_pos))
    for k, (model, p) in enumerate(zip(chosen, true_pos)):
        cell = np.flatnonzero(table == model)
        d = np.abs(cell - p) % cycle_frames
        off[k] = np.minimum(d, cycle_frames - d).min() if cell.size else np.inf
    bad = np.flatnonzero(off > slack_frames)
    if bad.size:
        k = int(bad[0])
        return [
            f"anchor phase: {bad.size} of {off.size} updates chose a model that "
            f"no match within {slack_frames:.1f} frames of the true phase selects "
            f"(update {k}: model {int(chosen[k])}, {off[k]:.1f} frames away)"
        ]
    return []


def check_batches_equal(online, offline) -> list[str]:
    """Online batches equal their offline replay bit for bit."""
    failures = []
    for got, want in zip(online, offline, strict=True):
        same = got.model_index == want.model_index and len(got.frames) == len(
            want.frames
        )
        same = same and all(
            a.model_index == b.model_index
            and a.horizon_frames == b.horizon_frames
            and np.array_equal(a.angles, b.angles)
            and np.array_equal(a.coordinates, b.coordinates)
            for a, b in zip(got.frames, want.frames)
        )
        if not same:
            failures.append(
                f"replay: batch ending at frame {got.last_observed_frame} "
                "differs from its offline replay"
            )
    return failures


def see_cm(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Summed per-joint Euclidean error in cm; inputs ``(N, J, 3)`` in m."""
    return np.linalg.norm(predicted - truth, axis=2).sum(axis=1) * 100.0


def check_see_beats_hold(model_cm: float, hold_cm: float) -> list[str]:
    """The 1 s prediction beats holding the last observed pose."""
    if not model_cm < hold_cm:
        return [f"skill: median SEE {model_cm:.3f} cm is not below hold-pose {hold_cm:.3f} cm"]
    return []


def closed_form_band(
    input_factors, output_factors, window_std: np.ndarray, future: int
) -> np.ndarray:
    """Exact standard deviation of a linear model's predicted tail.

    The model maps every frame on its own through the coefficient tensor
    ``B`` (rebuilt here from the CP factors with one einsum), so under
    independent Gaussian input noise with per-entry deviation ``s`` the
    output deviation is ``sqrt((s^2)^T (B o B))``.
    """
    (u1, u2), (v1, v2) = input_factors, output_factors
    coeff = np.einsum("ar,br,cr,dr->abcd", u1, u2, v1, v2)
    p = coeff.shape[0] * coeff.shape[1]
    squared = (coeff.reshape(p, -1)) ** 2
    tail = window_std[-future:].reshape(future, p) ** 2
    return np.sqrt(tail @ squared).reshape((future,) + coeff.shape[2:])


def check_bands(bands: list[np.ndarray], closed: list[np.ndarray], n_samples: int) -> list[str]:
    """Monte-Carlo bands agree with the closed form to sampling error."""
    ratio = np.concatenate(
        [(b / c).ravel() for b, c in zip(bands, closed, strict=True)]
    )
    unit = 1.0 / math.sqrt(2.0 * (n_samples - 1))
    failures = []
    worst = float(np.max(np.abs(ratio - 1.0))) / unit
    if not worst <= BAND_MAX_UNITS:
        failures.append(
            f"bands: worst relative error is {worst:.2f} units of "
            f"{unit:.4f} (limit {BAND_MAX_UNITS})"
        )
    mean_sq = float(np.mean(ratio**2))
    if not abs(mean_sq - 1.0) <= BAND_MEAN_RATIO_TOL:
        failures.append(f"bands: mean squared ratio to the closed form is {mean_sq:.4f}")
    return failures


def check_coverage(lower: np.ndarray, upper: np.ndarray, truth: np.ndarray) -> list[str]:
    """The posterior interval covers enough of the true shifted frames."""
    covered = float(np.mean((truth >= lower) & (truth <= upper)))
    if not covered >= MIN_POSTERIOR_COVERAGE:
        return [f"posterior: interval covers {covered:.3f} of the truth"]
    return []
