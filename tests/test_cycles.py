"""Cycle segmentation and reference construction tests.

Detection oracles on clean sinusoids are frozen: peaks, the minima
between them, and therefore the boundary frames are all known by hand.
The peak finder itself is checked against ``scipy.signal.find_peaks``.
Averaging conventions (population spread, median target length) are
pinned with mirror-pair literals.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensormotion.cycles import (
    ReferenceCycle,
    _find_peaks,
    build_reference,
    detect_cycles,
    extend_reference,
    resample_cycle,
    smooth_signal,
)
from tensormotion.kinematics import SPACE_JOINT_ANGLE, MotionSequence


def _angle_seq(frames, root=None, fps=60.0, names=("mid", "tip")):
    frames = np.asarray(frames, dtype=float)
    if root is None:
        root = np.zeros((frames.shape[0], 3))
    return MotionSequence(
        frames=frames,
        frame_rate=fps,
        space=SPACE_JOINT_ANGLE,
        joint_names=tuple(names),
        root_track=np.asarray(root, dtype=float),
    )


class TestSmoothSignal:
    """Spectrum-truncation filter."""

    def test_constant_unchanged(self):
        s = np.full(50, 2.5)
        np.testing.assert_allclose(smooth_signal(s, 0.3), s, atol=1e-12)

    def test_full_cutoff_is_identity(self):
        rng = np.random.default_rng(60)
        s = rng.standard_normal(64)
        np.testing.assert_allclose(smooth_signal(s, 1.0), s, atol=1e-10)

    def test_removes_high_tone_keeps_low(self):
        n = 400
        t = np.arange(n)
        low = np.sin(2 * np.pi * 3 * t / n)
        high = 0.4 * np.sin(2 * np.pi * 80 * t / n)
        cleaned = smooth_signal(low + high, 0.05)
        np.testing.assert_allclose(cleaned, low, atol=1e-9)

    def test_pure_low_tone_survives(self):
        n = 256
        s = 1.5 + np.cos(2 * np.pi * 2 * np.arange(n) / n)
        np.testing.assert_allclose(smooth_signal(s, 0.05), s, atol=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            smooth_signal(np.zeros(50), 0.0)
        with pytest.raises(ValueError):
            smooth_signal(np.zeros(50), 1.5)
        with pytest.raises(ValueError):
            smooth_signal(np.zeros(3), 0.5)
        with pytest.raises(ValueError):
            smooth_signal(np.zeros((5, 5)), 0.5)


# integer-valued runs: plateaus, exact ties and plateaus at either end
_RUN_SIGNALS = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(1, 4)), min_size=1, max_size=25
).map(lambda runs: np.repeat(*zip(*runs)).astype(float))
# long trains of tied peaks, where the thinning order decides
_PEAK_TRAINS = st.lists(st.integers(1, 3), min_size=1, max_size=80).map(
    lambda heights: np.ravel(np.column_stack([np.zeros(len(heights)), heights]))
)
_FLOAT_SIGNALS = st.lists(st.floats(-10, 10), min_size=1, max_size=40).map(
    lambda values: np.array(values, dtype=float)
)


class TestFindPeaks:
    """The peak finder returns what ``scipy.signal.find_peaks`` returns.
    scipy is the reference implementation, so only this test imports
    ``scipy.signal``."""

    @settings(max_examples=400, deadline=None)
    @given(
        x=st.one_of(_RUN_SIGNALS, _PEAK_TRAINS, _FLOAT_SIGNALS),
        height=st.one_of(st.integers(-2, 2), st.floats(-3, 3)),
        distance=st.one_of(st.just(1), st.integers(1, 20), st.floats(1, 20)),
    )
    @example(x=np.full(9, 0.5), height=0, distance=1)
    @example(x=np.array([1.0]), height=0, distance=1)
    @example(x=np.array([0.0, 1.0]), height=0, distance=1)
    @example(x=np.array([0.0, 1.0, 0.0]), height=1, distance=1)
    @example(x=np.array([2.0, 2, 1, 2, 1, 0, 0]), height=0, distance=1)
    @example(x=np.array([0.0, 1, 0, 2, 2, 0, 1, 1]), height=1, distance=2.5)
    @example(x=np.array([0.0, 1, 0, 1, 0, 1, 0, 1, 0]), height=1, distance=1.5)
    def test_matches_scipy(self, x, height, distance):
        from scipy.signal import find_peaks

        expected, _ = find_peaks(x, height=height, distance=distance)
        np.testing.assert_array_equal(_find_peaks(x, height, distance), expected)

    def test_plateau_peaks_at_their_middle(self):
        x = np.array([0.0, 1, 1, 1, 1, 0, 2, 2, 2, 0])
        assert _find_peaks(x, 0, 1).tolist() == [2, 7]


class TestDetectCycles:
    """Peak-grouped boundary placement."""

    def test_sine_frozen(self):
        """Period-100 sine over 400 samples: troughs at 75, 175, 275, 375."""
        s = np.sin(2 * np.pi * np.arange(400) / 100.0)
        assert detect_cycles(s, 1) == [(0, 75), (75, 175), (175, 275), (275, 375)]

    def test_two_peaks_per_cycle_frozen(self):
        """Period-50 sine grouped in pairs closes at every second trough."""
        s = np.sin(4 * np.pi * np.arange(400) / 100.0)
        assert detect_cycles(s, 2) == [(0, 88), (88, 187), (187, 287), (287, 387)]

    def test_ranges_are_consecutive_half_open(self):
        rng = np.random.default_rng(61)
        t = np.arange(1200)
        s = np.sin(2 * np.pi * t / 150.0) + 0.05 * rng.standard_normal(t.size)
        ranges = detect_cycles(smooth_signal(s, 0.05), 1)
        assert len(ranges) >= 6
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c and b > a

    def test_boundaries_near_true_troughs(self):
        t = np.arange(1000)
        s = np.sin(2 * np.pi * t / 125.0)
        for start, end in detect_cycles(s, 1):
            length = end - start
            assert 120 <= length <= 130 or start == 0

    def test_explicit_threshold_and_distance(self):
        s = np.sin(2 * np.pi * np.arange(400) / 100.0)
        ranges = detect_cycles(s, 1, threshold=0.9, min_peak_distance=50)
        assert ranges == [(0, 75), (75, 175), (175, 275), (275, 375)]

    def test_constant_signal_rejected(self):
        with pytest.raises(ValueError, match="oscillation"):
            detect_cycles(np.ones(100), 1)

    def test_too_few_peaks_rejected(self):
        s = np.sin(2 * np.pi * np.arange(40) / 40.0)
        with pytest.raises(ValueError, match="peaks"):
            detect_cycles(s, 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            detect_cycles(np.zeros((4, 4)), 1)
        with pytest.raises(ValueError):
            detect_cycles(np.zeros(10), 0)

    @pytest.mark.parametrize("distance", [0, -3, 0.5])
    def test_peak_distance_below_one_is_named(self, distance):
        s = np.sin(2 * np.pi * np.arange(400) / 100.0)
        with pytest.raises(ValueError, match="min_peak_distance"):
            detect_cycles(s, 1, min_peak_distance=distance)


class TestResampleCycle:
    """Linear interpolation onto a common time base."""

    def test_linear_ramp_exact(self):
        frames = np.linspace(0.1, 0.9, 9)[:, None, None] * np.ones((1, 2, 3))
        seq = _angle_seq(frames, root=np.linspace(0, 1, 9)[:, None] * np.ones(3))
        out = resample_cycle(seq, 5)
        np.testing.assert_allclose(
            out.frames[:, 0, 0], [0.1, 0.3, 0.5, 0.7, 0.9], atol=1e-12
        )
        np.testing.assert_allclose(out.root_track[:, 1], [0, 0.25, 0.5, 0.75, 1.0])

    def test_same_length_identity(self):
        rng = np.random.default_rng(62)
        seq = _angle_seq(rng.uniform(0.2, 3.0, (7, 2, 3)))
        out = resample_cycle(seq, 7)
        np.testing.assert_allclose(out.frames, seq.frames, atol=1e-12)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(63)
        seq = _angle_seq(rng.uniform(0.2, 3.0, (11, 2, 3)))
        out = resample_cycle(seq, 4)
        np.testing.assert_allclose(out.frames[0], seq.frames[0])
        np.testing.assert_allclose(out.frames[-1], seq.frames[-1])

    def test_target_too_small_rejected(self):
        seq = _angle_seq(np.full((5, 2, 3), 1.0))
        with pytest.raises(ValueError):
            resample_cycle(seq, 1)


class TestBuildReference:
    """Frame-wise averaging with population spread."""

    def test_single_cycle_zero_spread(self):
        rng = np.random.default_rng(64)
        seq = _angle_seq(rng.uniform(0.3, 2.8, (10, 2, 3)))
        ref = build_reference([seq])
        assert ref.source_cycle_count == 1
        np.testing.assert_allclose(ref.angles.frames, seq.frames, atol=1e-12)
        np.testing.assert_array_equal(ref.per_timestep_std, 0.0)

    def test_mirror_pair_mean_and_population_std(self):
        base = np.full((8, 2, 3), 1.5)
        delta = 0.25
        ref = build_reference(
            [_angle_seq(base + delta), _angle_seq(base - delta)]
        )
        np.testing.assert_allclose(ref.angles.frames, base, atol=1e-12)
        np.testing.assert_allclose(ref.per_timestep_std, delta, atol=1e-12)

    def test_target_defaults_to_median_length(self):
        rng = np.random.default_rng(65)
        cycles = [
            _angle_seq(rng.uniform(0.3, 2.8, (n, 2, 3))) for n in (8, 12, 20)
        ]
        assert build_reference(cycles).length_frames == 12

    def test_explicit_target(self):
        rng = np.random.default_rng(66)
        cycles = [_angle_seq(rng.uniform(0.3, 2.8, (n, 2, 3))) for n in (8, 12)]
        assert build_reference(cycles, target_frames=16).length_frames == 16

    def test_layout_mismatch_rejected(self):
        a = _angle_seq(np.full((6, 2, 3), 1.0))
        b = _angle_seq(np.full((6, 2, 3), 1.0), names=("tip", "mid"))
        with pytest.raises(ValueError):
            build_reference([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_reference([])


class TestExtendReference:
    """Tail prepending for boundary-straddling windows."""

    @pytest.fixture
    def ref(self):
        rng = np.random.default_rng(67)
        seq = _angle_seq(
            rng.uniform(0.3, 2.8, (12, 2, 3)), root=rng.standard_normal((12, 3))
        )
        return build_reference([seq])

    def test_zero_history_identity(self, ref):
        ext = extend_reference(ref, 0)
        np.testing.assert_array_equal(ext.frames, ref.angles.frames)

    def test_prepended_tail_indexing(self, ref):
        ext = extend_reference(ref, 5)
        assert ext.n_frames == 17
        np.testing.assert_array_equal(ext.frames[:5], ref.angles.frames[-5:])
        np.testing.assert_array_equal(ext.frames[5:], ref.angles.frames)
        np.testing.assert_array_equal(ext.root_track[:5], ref.angles.root_track[-5:])

    def test_full_wrap_doubles(self, ref):
        ext = extend_reference(ref, 12)
        assert ext.n_frames == 24
        np.testing.assert_array_equal(ext.frames[:12], ext.frames[12:])

    def test_history_beyond_cycle_rejected(self, ref):
        with pytest.raises(ValueError):
            extend_reference(ref, 13)
        with pytest.raises(ValueError):
            extend_reference(ref, -1)


class TestReferenceCycleValidation:
    """Container invariants."""

    def test_std_shape_mismatch_rejected(self):
        seq = _angle_seq(np.full((6, 2, 3), 1.0))
        with pytest.raises(ValueError):
            ReferenceCycle(
                angles=seq,
                per_timestep_std=np.zeros((6, 2)),
                source_cycle_count=1,
            )

    def test_negative_std_rejected(self):
        seq = _angle_seq(np.full((6, 2, 3), 1.0))
        with pytest.raises(ValueError):
            ReferenceCycle(
                angles=seq,
                per_timestep_std=np.full((6, 2, 3), -0.1),
                source_cycle_count=1,
            )

    def test_cartesian_angles_rejected(self):
        seq = MotionSequence(
            frames=np.zeros((6, 2, 3)),
            frame_rate=60.0,
            space="cartesian",
            joint_names=("mid", "tip"),
        )
        with pytest.raises(ValueError):
            ReferenceCycle(
                angles=seq,
                per_timestep_std=np.zeros((6, 2, 3)),
                source_cycle_count=1,
            )
