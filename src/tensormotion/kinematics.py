"""Skeleton model and transforms between Cartesian and joint-angle space.

A skeleton is a rooted tree of named joints. Every non-root joint J with
parent P and segment length d is described by three direction angles
``alpha = arccos((pos_J - pos_P) / d)``, one per axis. The inverse
transform rebuilds positions by walking the tree from the root:
``pos_J = pos_P + d * cos(alpha)``. No renormalization is applied on the
way back, so angles that only approximately satisfy the direction-cosine
identity (for example model predictions) produce slightly shortened or
lengthened segments by design.

The root joint has no angles; its trajectory travels alongside
angle-space data as ``root_track``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SPACE_CARTESIAN",
    "SPACE_JOINT_ANGLE",
    "MotionSequence",
    "Skeleton",
    "angles_to_coordinates",
    "default_skeleton",
    "fix_segment_lengths",
    "from_joint_angles",
    "positions_from_directions",
    "segment_distances",
    "to_joint_angles",
]

SPACE_CARTESIAN = "cartesian"
SPACE_JOINT_ANGLE = "joint_angle"

# arccos inputs and angle ranges may drift past their domain by rounding;
# anything beyond this is treated as a data error
CLAMP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Skeleton:
    """Rooted joint tree with per-segment lengths.

    ``parents`` maps every non-root joint to its parent;
    ``segment_lengths`` maps every non-root joint to the length of the
    segment connecting it to its parent, in the same unit as the
    Cartesian data (meters throughout this package).
    """

    joints: tuple[str, ...]
    parents: dict[str, str]
    segment_lengths: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "parents", dict(self.parents))
        object.__setattr__(
            self,
            "segment_lengths",
            {k: float(v) for k, v in self.segment_lengths.items()},
        )
        if len(set(self.joints)) != len(self.joints):
            raise ValueError("joint names must be unique")
        joint_set = set(self.joints)
        for child, parent in self.parents.items():
            if child not in joint_set or parent not in joint_set:
                raise ValueError(f"edge {child}->{parent} names an unknown joint")
        roots = [j for j in self.joints if j not in self.parents]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root joint, found {roots}")
        # reachability from the root doubles as the acyclicity check
        if len(self.topological_joints) != len(self.joints):
            raise ValueError("skeleton edges do not form a single rooted tree")
        if set(self.segment_lengths) != joint_set - {roots[0]}:
            raise ValueError("segment_lengths must cover exactly the non-root joints")
        for j, d in self.segment_lengths.items():
            if not np.isfinite(d) or d <= 0:
                raise ValueError(f"segment length for {j} must be positive, got {d}")

    @property
    def root(self) -> str:
        return next(j for j in self.joints if j not in self.parents)

    @property
    def non_root_joints(self) -> tuple[str, ...]:
        root = self.root
        return tuple(j for j in self.joints if j != root)

    @property
    def topological_joints(self) -> tuple[str, ...]:
        """All joints ordered so parents precede children."""
        children: dict[str, list[str]] = {j: [] for j in self.joints}
        for child in self.joints:
            if child in self.parents:
                children[self.parents[child]].append(child)
        order = []
        stack = [self.root]
        while stack:
            j = stack.pop()
            order.append(j)
            stack.extend(reversed(children[j]))
        return tuple(order)

    def length_vector(self) -> np.ndarray:
        """Segment lengths as an array in ``non_root_joints`` order."""
        return np.array([self.segment_lengths[j] for j in self.non_root_joints])

    def with_lengths(self, segment_lengths: dict[str, float]) -> "Skeleton":
        return Skeleton(self.joints, self.parents, segment_lengths)

    def to_file(self, path) -> None:
        payload = {
            "joints": list(self.joints),
            "parents": self.parents,
            "segment_lengths": self.segment_lengths,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @staticmethod
    def from_file(path) -> "Skeleton":
        payload = json.loads(Path(path).read_text())
        try:
            return Skeleton(
                tuple(payload["joints"]),
                payload["parents"],
                payload["segment_lengths"],
            )
        except KeyError as exc:
            raise ValueError(f"skeleton file {path} is missing key {exc}") from exc


def default_skeleton() -> Skeleton:
    """Ten-joint upper-body skeleton with meter-scale segment lengths."""
    parents = {
        "spine": "hip",
        "neck": "spine",
        "head": "neck",
        "shoulder_l": "neck",
        "shoulder_r": "neck",
        "elbow_l": "shoulder_l",
        "elbow_r": "shoulder_r",
        "hand_l": "elbow_l",
        "hand_r": "elbow_r",
    }
    lengths = {
        "spine": 0.45,
        "neck": 0.12,
        "head": 0.15,
        "shoulder_l": 0.18,
        "shoulder_r": 0.18,
        "elbow_l": 0.28,
        "elbow_r": 0.28,
        "hand_l": 0.25,
        "hand_r": 0.25,
    }
    joints = ("hip",) + tuple(parents)
    return Skeleton(joints, parents, lengths)


@dataclass(frozen=True)
class MotionSequence:
    """Fixed-rate sequence of per-joint 3-vectors.

    ``space`` is either ``"cartesian"`` (positions in meters) or
    ``"joint_angle"`` (direction angles in radians, all within
    ``[0, pi]``). Angle-space sequences hold only non-root joints and
    carry the root positions in ``root_track``.
    """

    frames: np.ndarray
    frame_rate: float
    space: str
    joint_names: tuple[str, ...]
    root_track: np.ndarray | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise ValueError(f"frames must have shape (T, J, 3), got {frames.shape}")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames contain non-finite values")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "joint_names", tuple(self.joint_names))
        if len(self.joint_names) != frames.shape[1]:
            raise ValueError(
                f"{len(self.joint_names)} joint names for {frames.shape[1]} columns"
            )
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if self.space not in (SPACE_CARTESIAN, SPACE_JOINT_ANGLE):
            raise ValueError(f"unknown space {self.space!r}")
        if self.root_track is not None:
            track = np.asarray(self.root_track, dtype=float)
            if track.shape != (frames.shape[0], 3):
                raise ValueError(
                    f"root_track shape {track.shape} does not match "
                    f"({frames.shape[0]}, 3)"
                )
            if not np.all(np.isfinite(track)):
                raise ValueError("root_track contains non-finite values")
            object.__setattr__(self, "root_track", track)
        if self.space == SPACE_JOINT_ANGLE:
            if self.root_track is None:
                raise ValueError("angle-space sequences need a root_track")
            lo = self.frames.min() if self.frames.size else 0.0
            hi = self.frames.max() if self.frames.size else 0.0
            if lo < -CLAMP_TOLERANCE or hi > np.pi + CLAMP_TOLERANCE:
                raise ValueError(
                    f"joint angles must lie in [0, pi], found range [{lo}, {hi}]"
                )

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_joints(self) -> int:
        return self.frames.shape[1]

    @property
    def duration(self) -> float:
        return self.n_frames / self.frame_rate

    def validate_directions(self, tolerance: float = 1e-6) -> float:
        """Check the direction-cosine identity on angle-space data.

        For angles produced by :func:`to_joint_angles` the squared
        cosines sum to one per joint and frame. Returns the largest
        deviation; raises when it exceeds ``tolerance``. Predicted
        angles typically violate the identity, which is why this is a
        separate check and not a construction invariant.
        """
        if self.space != SPACE_JOINT_ANGLE:
            raise ValueError("direction check applies to angle-space sequences")
        dev = np.abs(np.square(np.cos(self.frames)).sum(axis=2) - 1.0)
        worst = float(dev.max()) if dev.size else 0.0
        if worst > tolerance:
            t, j = np.unravel_index(np.argmax(dev), dev.shape)
            raise ValueError(
                f"direction-cosine identity violated by {worst:.3e} at "
                f"frame {t}, joint {self.joint_names[j]}"
            )
        return worst


def _column_indices(seq: MotionSequence, names) -> np.ndarray:
    missing = [n for n in names if n not in seq.joint_names]
    if missing:
        raise ValueError(f"sequence lacks joints {missing}")
    lookup = {n: i for i, n in enumerate(seq.joint_names)}
    return np.array([lookup[n] for n in names])


def _segment_vectors(seq: MotionSequence, skeleton: Skeleton) -> np.ndarray:
    """Child-minus-parent vectors, shape ``(T, n_segments, 3)``, with
    segments in ``skeleton.non_root_joints`` order."""
    if seq.space != SPACE_CARTESIAN:
        raise ValueError(f"expected Cartesian data, got {seq.space!r} data")
    non_root = skeleton.non_root_joints
    child = _column_indices(seq, non_root)
    parent = _column_indices(seq, [skeleton.parents[j] for j in non_root])
    return seq.frames[:, child] - seq.frames[:, parent]


def segment_distances(seq: MotionSequence, skeleton: Skeleton) -> np.ndarray:
    """Per-frame child-parent distances, shape ``(T, n_segments)``.

    Columns follow ``skeleton.non_root_joints``.
    """
    return np.linalg.norm(_segment_vectors(seq, skeleton), axis=2)


def to_joint_angles(
    seq: MotionSequence, skeleton: Skeleton
) -> tuple[MotionSequence, np.ndarray]:
    """Convert Cartesian positions to per-segment direction angles.

    Returns the angle-space sequence (non-root joints only, root
    positions in ``root_track``) and the measured per-frame segment
    distances, shape ``(T, n_segments)``.

    Raises
    ------
    ValueError
        If any frame has a coincident child-parent pair, which leaves
        the direction undefined.
    """
    non_root = skeleton.non_root_joints
    diff = _segment_vectors(seq, skeleton)
    dist = np.linalg.norm(diff, axis=2)
    if np.any(dist == 0.0):
        t, j = np.argwhere(dist == 0.0)[0]
        raise ValueError(
            f"coincident joints {non_root[j]} and its parent at frame {t}"
        )
    ratio = diff / dist[:, :, None]
    # |component| <= norm holds exactly; only rounding can poke past 1
    ratio = np.clip(ratio, -1.0, 1.0)
    angles = np.arccos(ratio)
    root_idx = _column_indices(seq, [skeleton.root])[0]
    angle_seq = MotionSequence(
        frames=angles,
        frame_rate=seq.frame_rate,
        space=SPACE_JOINT_ANGLE,
        joint_names=non_root,
        root_track=seq.frames[:, root_idx].copy(),
    )
    return angle_seq, dist


def positions_from_directions(
    directions: np.ndarray,
    root_positions: np.ndarray,
    skeleton: Skeleton,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Walk the tree from the root: ``pos_J = pos_P + d * direction_J``.

    ``directions`` is ``(T, n_segments, 3)`` in ``skeleton.non_root_joints``
    order and is used as given, so a non-unit vector scales its segment.
    ``root_positions`` is ``(T, 3)`` or one ``(3,)`` position for all
    frames. ``lengths``, ``(n_segments,)`` static or ``(T, n_segments)``
    per frame, overrides the skeleton's segment lengths. Returns
    ``(T, n_joints, 3)`` positions in ``skeleton.joints`` order.
    """
    directions = np.asarray(directions, dtype=float)
    non_root = skeleton.non_root_joints
    n_frames = directions.shape[0]
    if directions.ndim != 3 or directions.shape[1:] != (len(non_root), 3):
        raise ValueError(
            f"directions must have shape (T, {len(non_root)}, 3), "
            f"got {directions.shape}"
        )
    root_positions = np.asarray(root_positions, dtype=float)
    if root_positions.shape == (3,):
        root_positions = np.broadcast_to(root_positions, (n_frames, 3))
    if root_positions.shape != (n_frames, 3):
        raise ValueError(
            f"root_positions shape {root_positions.shape} does not match "
            f"({n_frames}, 3)"
        )
    if lengths is None:
        lengths = skeleton.length_vector()
    else:
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape not in ((len(non_root),), (n_frames, len(non_root))):
            raise ValueError(f"unexpected lengths shape {lengths.shape}")
        if np.any(lengths <= 0):
            raise ValueError("segment lengths must be positive")

    seg_col = {j: i for i, j in enumerate(non_root)}
    out_col = {j: i for i, j in enumerate(skeleton.joints)}
    coords = np.empty((n_frames, len(skeleton.joints), 3))
    coords[:, out_col[skeleton.root]] = root_positions
    for joint in skeleton.topological_joints:
        if joint == skeleton.root:
            continue
        s = seg_col[joint]
        d = lengths[s] if lengths.ndim == 1 else lengths[:, s, None]
        coords[:, out_col[joint]] = coords[:, out_col[skeleton.parents[joint]]] + (
            d * directions[:, s]
        )
    return coords


def angles_to_coordinates(
    angles: np.ndarray,
    root_positions: np.ndarray,
    skeleton: Skeleton,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild Cartesian positions from direction angles.

    ``angles`` is ``(T, n_segments, 3)`` in ``skeleton.non_root_joints``
    order; the segments point along ``cos(angles)``. The other
    arguments and the result are those of
    :func:`positions_from_directions`.
    """
    return positions_from_directions(
        np.cos(np.asarray(angles, dtype=float)), root_positions, skeleton, lengths
    )


def from_joint_angles(
    seq: MotionSequence,
    skeleton: Skeleton,
    lengths: np.ndarray | None = None,
) -> MotionSequence:
    """Back-transform an angle-space sequence to Cartesian positions.

    :class:`MotionSequence` lets angles stray past ``[0, pi]`` by at most
    the clamp tolerance; they are clipped here. Segment lengths default
    to the skeleton's; pass the per-frame distances returned by
    :func:`to_joint_angles` for an exact round trip.
    """
    if seq.space != SPACE_JOINT_ANGLE:
        raise ValueError("from_joint_angles expects angle-space data")
    if seq.joint_names != skeleton.non_root_joints:
        raise ValueError(
            "sequence joints do not match the skeleton's non-root joints"
        )
    angles = np.clip(seq.frames, 0.0, np.pi)
    coords = angles_to_coordinates(angles, seq.root_track, skeleton, lengths)
    return MotionSequence(
        frames=coords,
        frame_rate=seq.frame_rate,
        space=SPACE_CARTESIAN,
        joint_names=skeleton.joints,
    )


def fix_segment_lengths(seq: MotionSequence, skeleton: Skeleton) -> Skeleton:
    """Freeze per-segment lengths to their median measured distance.

    ``np.median`` conventions apply: for an even frame count the two
    middle values are averaged.
    """
    dist = segment_distances(seq, skeleton)
    medians = np.median(dist, axis=0)
    return skeleton.with_lengths(
        {j: float(medians[i]) for i, j in enumerate(skeleton.non_root_joints)}
    )
