"""Synthetic repetitive-motion generator.

Each non-root joint follows a smooth periodic program on the unit
sphere: a polar angle and an azimuth, both sinusoidal in the cycle
phase. Unit direction vectors built that way satisfy the
direction-cosine identity by construction, so the generated motion is
kinematically consistent. The first non-root joint (the spine of the
default skeleton) gets a program whose polar angle bottoms out exactly
at cycle starts and peaks once mid-cycle, which makes its z-angle the
natural segmentation channel. The root stands still.

Ground-truth cycle boundaries are returned alongside the frames. With
all jitters and noise at zero, the motion repeats bit-exactly from
cycle to cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    MotionSequence,
    Skeleton,
    default_skeleton,
    positions_from_directions,
)

__all__ = ["SynthConfig", "generate_motion"]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator.

    ``period_jitter_fraction`` varies each cycle's length,
    ``length_jitter_fraction`` perturbs every segment length per frame
    (violating rigidity on purpose), and ``noise_std_cm`` adds white
    coordinate noise. All randomness derives from ``seed``.
    """

    cycle_count: int = 8
    base_period_frames: int = 600
    frame_rate: float = 60.0
    period_jitter_fraction: float = 0.0
    length_jitter_fraction: float = 0.0
    noise_std_cm: float = 0.0
    seed: int = 0
    skeleton: Skeleton | None = None

    def __post_init__(self):
        if self.cycle_count < 1:
            raise ValueError("cycle_count must be at least 1")
        if self.base_period_frames < 4:
            raise ValueError("base_period_frames must be at least 4")
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if not 0 <= self.period_jitter_fraction < 0.5:
            raise ValueError("period_jitter_fraction must lie in [0, 0.5)")
        if not 0 <= self.length_jitter_fraction < 0.5:
            raise ValueError("length_jitter_fraction must lie in [0, 0.5)")
        if self.noise_std_cm < 0:
            raise ValueError("noise_std_cm must be non-negative")


def generate_motion(
    config: SynthConfig,
) -> tuple[MotionSequence, list[tuple[int, int]]]:
    """Generate a Cartesian sequence plus its true cycle ranges.

    Returns the motion in ``skeleton.joints`` order and a list of
    half-open ``(start, end)`` frame ranges, one per cycle.
    """
    skeleton = config.skeleton or default_skeleton()
    rng = np.random.default_rng(config.seed)
    n_seg = len(skeleton.non_root_joints)

    # per-joint program parameters; the first joint is the designated
    # segmentation channel with its trough pinned to the cycle start
    polar_center = rng.uniform(1.0, 2.0, n_seg)
    polar_amp = rng.uniform(0.25, 0.7, n_seg)
    polar_phase = rng.uniform(0.0, 2.0 * np.pi, n_seg)
    azim_center = rng.uniform(0.0, 2.0 * np.pi, n_seg)
    azim_amp = rng.uniform(0.3, 1.0, n_seg)
    azim_phase = rng.uniform(0.0, 2.0 * np.pi, n_seg)
    seg_center = rng.uniform(0.4, 0.6)
    seg_amp = rng.uniform(0.5, 0.8)

    periods = np.full(config.cycle_count, config.base_period_frames, dtype=int)
    if config.period_jitter_fraction:
        wobble = rng.uniform(
            -config.period_jitter_fraction,
            config.period_jitter_fraction,
            config.cycle_count,
        )
        periods = np.maximum(
            4, np.round(config.base_period_frames * (1.0 + wobble)).astype(int)
        )

    phase = np.concatenate([np.arange(p) / p for p in periods])
    starts = np.concatenate([[0], np.cumsum(periods)])
    ranges = [
        (int(starts[i]), int(starts[i + 1])) for i in range(config.cycle_count)
    ]
    n_frames = int(starts[-1])
    omega = 2.0 * np.pi * phase

    polar = polar_center[None, :] + polar_amp[None, :] * np.sin(
        omega[:, None] + polar_phase[None, :]
    )
    # trough exactly at phase 0, single peak at phase 0.5
    polar[:, 0] = seg_center + seg_amp * (1.0 - np.cos(omega)) / 2.0
    azim = azim_center[None, :] + azim_amp[None, :] * np.sin(
        omega[:, None] + azim_phase[None, :]
    )
    dirs = np.stack(
        [
            np.sin(polar) * np.cos(azim),
            np.sin(polar) * np.sin(azim),
            np.cos(polar),
        ],
        axis=2,
    )

    lengths = skeleton.length_vector()[None, :] * np.ones((n_frames, 1))
    if config.length_jitter_fraction:
        lengths = lengths * (
            1.0
            + rng.uniform(
                -config.length_jitter_fraction,
                config.length_jitter_fraction,
                (n_frames, n_seg),
            )
        )

    coords = positions_from_directions(
        dirs, np.array([0.0, 0.0, 1.0]), skeleton, lengths
    )

    if config.noise_std_cm:
        coords = coords + rng.standard_normal(coords.shape) * (
            config.noise_std_cm / 100.0
        )

    seq = MotionSequence(
        frames=coords,
        frame_rate=config.frame_rate,
        space=SPACE_CARTESIAN,
        joint_names=skeleton.joints,
    )
    return seq, ranges
