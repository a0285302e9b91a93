"""Seeded repetitive-motion inputs for the benchmark.

This generator is the benchmark's own: it does not import
``tensormotion.synth``, so a change to the program cannot change the
inputs it is measured on. Every segment of a ten-joint upper-body tree
points along a smooth periodic direction (polar angle and azimuth, each
two harmonics of the cycle phase). The spine's polar angle, which is
its direction angle to the z axis, has exactly one trough per cycle, at
the cycle start, and one peak at mid-cycle. The motion program is the
same for every seed, so that a quality metric such as the prediction
error does not swing with the seed; the seed draws each cycle's period,
a small amplitude wobble per cycle and the white noise on every
coordinate. The generator returns the true cycle boundaries and the
true phase of every frame, which the checks compare the program's
outputs against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (joint, parent, segment length in metres), parents before children
TREE = (
    ("hip", None, None),
    ("spine", "hip", 0.45),
    ("neck", "spine", 0.12),
    ("head", "neck", 0.15),
    ("shoulder_l", "neck", 0.18),
    ("shoulder_r", "neck", 0.18),
    ("elbow_l", "shoulder_l", 0.28),
    ("elbow_r", "shoulder_r", 0.28),
    ("hand_l", "elbow_l", 0.25),
    ("hand_r", "elbow_r", 0.25),
)
JOINTS = tuple(name for name, _, _ in TREE)
ROOT_POSITION = (0.0, 0.0, 1.0)
PROGRAM_SEED = 20180501
# what the workload seed draws: each cycle's period within +-10% of the
# nominal one, each cycle's excursions within +-3%, and 0.5 cm of white
# noise on every coordinate
PERIOD_JITTER = 0.10
WOBBLE = 0.03
NOISE_CM = 0.5


@dataclass(frozen=True)
class Capture:
    """Cartesian frames ``(T, J, 3)`` in ``JOINTS`` order, the true
    half-open cycle ranges and the true phase in ``[0, 1)`` of every
    frame."""

    frames: np.ndarray
    ranges: tuple[tuple[int, int], ...]
    phase: np.ndarray


def generate(seed: int, cycles: int, period_frames: int) -> Capture:
    """Generate ``cycles`` repetitions of one motion program.

    Each cycle's length is ``period_frames`` scaled by a uniform draw
    from ``1 +- PERIOD_JITTER``; each cycle's excursions are scaled by a
    uniform draw from ``1 +- WOBBLE``. These draws and the noise derive
    from ``seed``, the motion program from ``PROGRAM_SEED``.
    """
    program = np.random.default_rng(PROGRAM_SEED)
    rng = np.random.default_rng(seed)
    n_seg = len(JOINTS) - 1

    # per-segment programs; polar angles stay inside (0.3, 2.8) rad so
    # no direction comes near a pole of the azimuth
    polar_mean = program.uniform(1.1, 2.0, n_seg)
    polar_amp = program.uniform(0.15, 0.45, (2, n_seg)) * np.array([[1.0], [0.35]])
    polar_shift = program.uniform(0.0, 2.0 * np.pi, (2, n_seg))
    azim_mean = program.uniform(0.0, 2.0 * np.pi, n_seg)
    azim_amp = program.uniform(0.3, 0.9, (2, n_seg)) * np.array([[1.0], [0.35]])
    azim_shift = program.uniform(0.0, 2.0 * np.pi, (2, n_seg))
    spine_low = program.uniform(0.3, 0.45)
    spine_rise = program.uniform(0.55, 0.8)

    periods = np.round(
        period_frames * (1.0 + rng.uniform(-PERIOD_JITTER, PERIOD_JITTER, cycles))
    ).astype(int)
    scales = 1.0 + rng.uniform(-WOBBLE, WOBBLE, cycles)
    starts = np.concatenate([[0], np.cumsum(periods)])
    phase = np.concatenate([np.arange(p) / p for p in periods])
    scale = np.repeat(scales, periods)[:, None]
    omega = 2.0 * np.pi * phase[:, None]

    polar = polar_mean + scale * (
        polar_amp[0] * np.sin(omega + polar_shift[0])
        + polar_amp[1] * np.sin(2.0 * omega + polar_shift[1])
    )
    azim = azim_mean + scale * (
        azim_amp[0] * np.sin(omega + azim_shift[0])
        + azim_amp[1] * np.sin(2.0 * omega + azim_shift[1])
    )
    # spine: trough at every cycle start, single peak at mid-cycle
    polar[:, 0] = spine_low + scale[:, 0] * spine_rise * (1.0 - np.cos(omega[:, 0])) / 2.0
    directions = np.stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)],
        axis=2,
    )

    coords = np.empty((phase.size, len(JOINTS), 3))
    coords[:, 0] = ROOT_POSITION
    column = {name: i for i, name in enumerate(JOINTS)}
    for i, (name, parent, length) in enumerate(TREE[1:]):
        coords[:, i + 1] = coords[:, column[parent]] + length * directions[:, i]
    coords += rng.standard_normal(coords.shape) * (NOISE_CM / 100.0)

    ranges = tuple((int(a), int(b)) for a, b in zip(starts[:-1], starts[1:]))
    return Capture(frames=coords, ranges=ranges, phase=phase)


def skeleton_spec() -> tuple[tuple[str, ...], dict[str, str], dict[str, float]]:
    """Joints, parent map and segment lengths of the generated tree."""
    parents = {name: parent for name, parent, _ in TREE[1:]}
    lengths = {name: length for name, _, length in TREE[1:]}
    return JOINTS, parents, lengths
