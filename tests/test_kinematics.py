"""Skeleton model and angle transform tests.

Direction angles are defined per segment as the arccosine of each
normalized offset component, so small literal cases can be frozen by
hand. The back-transform deliberately does not renormalize direction
cosines; a literal case pins that behavior.
"""

import numpy as np
import pytest

from helpers import random_tree_motion
from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    SPACE_JOINT_ANGLE,
    MotionSequence,
    Skeleton,
    angles_to_coordinates,
    default_skeleton,
    fix_segment_lengths,
    from_joint_angles,
    positions_from_directions,
    segment_distances,
    to_joint_angles,
)


def _two_bone() -> Skeleton:
    return Skeleton(
        joints=("root", "mid", "tip"),
        parents={"mid": "root", "tip": "mid"},
        segment_lengths={"mid": 1.0, "tip": 0.5},
    )


def _cartesian(frames, names, fps=60.0) -> MotionSequence:
    return MotionSequence(
        frames=np.asarray(frames, dtype=float),
        frame_rate=fps,
        space=SPACE_CARTESIAN,
        joint_names=tuple(names),
    )


class TestSkeleton:
    """Topology container and its validation."""

    def test_default_skeleton_shape(self):
        sk = default_skeleton()
        assert len(sk.joints) == 10
        assert sk.root == "hip"
        assert len(sk.non_root_joints) == 9
        assert all(v > 0 for v in sk.segment_lengths.values())

    def test_topological_order_parents_first(self):
        sk = default_skeleton()
        seen = set()
        for joint in sk.topological_joints:
            if joint != sk.root:
                assert sk.parents[joint] in seen
            seen.add(joint)

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(
                joints=("a", "b", "c"),
                parents={"c": "b"},
                segment_lengths={"c": 1.0},
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(
                joints=("a", "b", "c"),
                parents={"a": "b", "b": "c", "c": "a"},
                segment_lengths={"a": 1.0, "b": 1.0, "c": 1.0},
            )

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(
                joints=("a", "b"),
                parents={"b": "a"},
                segment_lengths={"b": 0.0},
            )

    def test_missing_length_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(joints=("a", "b"), parents={"b": "a"}, segment_lengths={})

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError):
            Skeleton(
                joints=("a", "b"),
                parents={"b": "ghost"},
                segment_lengths={"b": 1.0},
            )

    def test_json_round_trip(self, tmp_path):
        sk = default_skeleton()
        path = tmp_path / "skeleton.json"
        sk.to_file(path)
        back = Skeleton.from_file(path)
        assert back.joints == sk.joints
        assert back.parents == sk.parents
        assert back.segment_lengths == sk.segment_lengths

    def test_with_lengths_replaces_only_lengths(self):
        sk = _two_bone()
        new = sk.with_lengths({"mid": 2.0, "tip": 0.25})
        assert new.joints == sk.joints
        assert new.segment_lengths == {"mid": 2.0, "tip": 0.25}
        assert sk.segment_lengths["mid"] == 1.0


class TestMotionSequence:
    """Array container validation."""

    def test_duration(self):
        seq = _cartesian(np.zeros((120, 3, 3)), ("root", "mid", "tip"), 60.0)
        assert seq.n_frames == 120
        assert seq.n_joints == 3
        assert seq.duration == pytest.approx(2.0)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            _cartesian(np.zeros((5, 3)), ("a", "b", "c"))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _cartesian(np.zeros((5, 3, 3)), ("a", "b"))

    def test_non_finite_rejected(self):
        frames = np.zeros((2, 1, 3))
        frames[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            _cartesian(frames, ("a",))

    def test_angle_space_requires_root_track(self):
        with pytest.raises(ValueError):
            MotionSequence(
                frames=np.full((2, 1, 3), 0.5),
                frame_rate=60.0,
                space=SPACE_JOINT_ANGLE,
                joint_names=("mid",),
            )

    def test_angle_space_range_checked(self):
        with pytest.raises(ValueError):
            MotionSequence(
                frames=np.full((2, 1, 3), 4.0),
                frame_rate=60.0,
                space=SPACE_JOINT_ANGLE,
                joint_names=("mid",),
                root_track=np.zeros((2, 3)),
            )


class TestToJointAngles:
    """Forward transform oracles."""

    def test_axis_aligned_frozen(self):
        frames = [[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.5]]]
        seq = _cartesian(frames, ("root", "mid", "tip"))
        angles, dist = to_joint_angles(seq, _two_bone())
        half = np.pi / 2
        np.testing.assert_allclose(
            angles.frames[0], [[0.0, half, half], [half, half, 0.0]]
        )
        np.testing.assert_allclose(dist[0], [2.0, 0.5])
        np.testing.assert_array_equal(angles.root_track, [[0.0, 0.0, 0.0]])

    def test_diagonal_frozen(self):
        step = 1.0 / np.sqrt(3.0)
        frames = [[[0.0, 0.0, 0.0], [step, step, step], [step, step, step + 1.0]]]
        seq = _cartesian(frames, ("root", "mid", "tip"))
        angles, dist = to_joint_angles(seq, _two_bone())
        diag = np.arccos(step)
        np.testing.assert_allclose(angles.frames[0, 0], [diag, diag, diag])
        np.testing.assert_allclose(dist[0], [1.0, 1.0])

    def test_elementwise_formula_oracle(self):
        rng = np.random.default_rng(50)
        sk = default_skeleton()
        seq = random_tree_motion(rng, 7, sk)
        angles, dist = to_joint_angles(seq, sk)
        col = {j: i for i, j in enumerate(seq.joint_names)}
        for t in range(7):
            for s, joint in enumerate(sk.non_root_joints):
                offset = (
                    seq.frames[t, col[joint]]
                    - seq.frames[t, col[sk.parents[joint]]]
                )
                norm = np.sqrt((offset**2).sum())
                assert dist[t, s] == pytest.approx(norm, rel=1e-12)
                for axis in range(3):
                    expected = np.arccos(offset[axis] / norm)
                    assert angles.frames[t, s, axis] == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_direction_identity_holds_for_measured_angles(self):
        rng = np.random.default_rng(51)
        seq = random_tree_motion(rng, 50)
        angles, _ = to_joint_angles(seq, default_skeleton())
        assert angles.validate_directions(tolerance=1e-9) <= 1e-9

    def test_coincident_joints_rejected(self):
        frames = [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]
        seq = _cartesian(frames, ("root", "mid", "tip"))
        with pytest.raises(ValueError, match="coincident"):
            to_joint_angles(seq, _two_bone())

    def test_wrong_space_rejected(self):
        seq = MotionSequence(
            frames=np.full((1, 2, 3), 0.5),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((1, 3)),
        )
        with pytest.raises(ValueError):
            to_joint_angles(seq, _two_bone())


class TestBackTransform:
    """Inverse transform and its pinned no-renormalization semantics."""

    def test_round_trip_with_measured_distances(self):
        rng = np.random.default_rng(52)
        sk = default_skeleton()
        for trial in range(5):
            seq = random_tree_motion(rng, 40, sk)
            angles, dist = to_joint_angles(seq, sk)
            back = from_joint_angles(angles, sk, lengths=dist)
            col_in = {j: i for i, j in enumerate(seq.joint_names)}
            col_out = {j: i for i, j in enumerate(back.joint_names)}
            for joint in sk.joints:
                np.testing.assert_allclose(
                    back.frames[:, col_out[joint]],
                    seq.frames[:, col_in[joint]],
                    atol=1e-9,
                )

    def test_no_renormalization_frozen(self):
        """Equal thirds give a segment of length d*sqrt(3)/2, not d."""
        angle = np.arccos(0.5)
        seq = MotionSequence(
            frames=np.full((1, 2, 3), angle),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((1, 3)),
        )
        back = from_joint_angles(seq, _two_bone())
        np.testing.assert_allclose(back.frames[0, 1], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(back.frames[0, 2], [0.75, 0.75, 0.75])

    def test_static_lengths_follow_skeleton(self):
        half = np.pi / 2
        frames = np.array([[[0.0, half, half], [half, 0.0, half]]])
        seq = MotionSequence(
            frames=frames,
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.array([[1.0, 2.0, 3.0]]),
        )
        back = from_joint_angles(seq, _two_bone())
        np.testing.assert_allclose(back.frames[0, 0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(back.frames[0, 1], [2.0, 2.0, 3.0])
        np.testing.assert_allclose(back.frames[0, 2], [2.0, 2.5, 3.0])

    def test_per_frame_lengths_shape(self):
        rng = np.random.default_rng(53)
        sk = _two_bone()
        angles = rng.uniform(0.3, np.pi - 0.3, (4, 2, 3))
        seq = MotionSequence(
            frames=angles,
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((4, 3)),
        )
        lengths = rng.uniform(0.5, 1.5, (4, 2))
        coords = angles_to_coordinates(angles, seq.root_track, sk, lengths)
        assert coords.shape == (4, 3, 3)
        grown = angles_to_coordinates(angles, seq.root_track, sk, 2.0 * lengths)
        np.testing.assert_allclose(grown, 2.0 * coords, atol=1e-12)

    def test_rounding_overshoot_is_clamped(self):
        """Angles a rounding error past the range are clipped, not errors."""
        frames = np.full((1, 2, 3), 0.5)
        frames[0, 0, 0] = np.pi + 1e-12
        frames[0, 1, 2] = -1e-12
        seq = MotionSequence(
            frames=frames,
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((1, 3)),
        )
        back = from_joint_angles(seq, _two_bone())
        assert np.all(np.isfinite(back.frames))

    def test_joint_name_mismatch_rejected(self):
        seq = MotionSequence(
            frames=np.full((1, 2, 3), 0.5),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("tip", "mid"),
            root_track=np.zeros((1, 3)),
        )
        with pytest.raises(ValueError):
            from_joint_angles(seq, _two_bone())

    def test_sibling_order_does_not_change_positions(self):
        fork_a = Skeleton(
            joints=("root", "left", "right"),
            parents={"left": "root", "right": "root"},
            segment_lengths={"left": 1.0, "right": 2.0},
        )
        fork_b = Skeleton(
            joints=("root", "right", "left"),
            parents={"left": "root", "right": "root"},
            segment_lengths={"left": 1.0, "right": 2.0},
        )
        rng = np.random.default_rng(54)
        angles = rng.uniform(0.3, np.pi - 0.3, (3, 2, 3))
        root = rng.standard_normal((3, 3))
        coords_a = angles_to_coordinates(angles, root, fork_a)
        coords_b = angles_to_coordinates(
            angles[:, ::-1], root, fork_b
        )
        np.testing.assert_allclose(coords_a[:, 1], coords_b[:, 2])
        np.testing.assert_allclose(coords_a[:, 2], coords_b[:, 1])

    @pytest.mark.parametrize("per_frame", [False, True])
    def test_angles_walk_the_tree_along_their_cosines(self, per_frame):
        """The back-transform is the directions walk applied to cos."""
        rng = np.random.default_rng(55)
        sk = default_skeleton()
        n_seg = len(sk.non_root_joints)
        angles = rng.uniform(0.0, np.pi, (5, n_seg, 3))
        roots = rng.standard_normal((5, 3))
        lengths = rng.uniform(0.1, 0.5, (5, n_seg) if per_frame else n_seg)
        coords = angles_to_coordinates(angles, roots, sk, lengths)
        walked = positions_from_directions(np.cos(angles), roots, sk, lengths)
        assert coords.tobytes() == walked.tobytes()


class TestSegmentLengths:
    """Distance measurement and median freezing."""

    def test_segment_distances_formula(self):
        frames = [
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.1, 0.0]],
            [[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [1.2, 0.9, 0.0]],
        ]
        seq = _cartesian(frames, ("root", "mid", "tip"))
        np.testing.assert_allclose(
            segment_distances(seq, _two_bone()), [[1.0, 1.1], [1.2, 0.9]]
        )

    def test_median_odd_count(self):
        frames = [
            [[0.0, 0.0, 0.0], [d, 0.0, 0.0], [d + 0.5, 0.0, 0.0]]
            for d in (1.0, 1.2, 1.1)
        ]
        seq = _cartesian(frames, ("root", "mid", "tip"))
        fixed = fix_segment_lengths(seq, _two_bone())
        assert fixed.segment_lengths["mid"] == pytest.approx(1.1)
        assert fixed.segment_lengths["tip"] == pytest.approx(0.5)

    def test_median_even_count_averages(self):
        frames = [
            [[0.0, 0.0, 0.0], [d, 0.0, 0.0], [d + 0.5, 0.0, 0.0]]
            for d in (1.0, 1.2)
        ]
        seq = _cartesian(frames, ("root", "mid", "tip"))
        fixed = fix_segment_lengths(seq, _two_bone())
        assert fixed.segment_lengths["mid"] == pytest.approx(1.1)
