"""Warping-distance tests.

The dynamic program is checked against exhaustive path enumeration
(helpers.brute_distance) across endpoint-flag combinations, and the
accelerated backend is cross-checked against the plain one on larger
inputs. The numpy backend's two dynamic programs (scalar recurrence for
narrow references, row scan for wide ones) are checked on both sides of
their size switch, also when the caller hands in the cost rows, as an
array or as a rotated list of rows like the online predictor's ring.
Tie-break rules (earliest match column, diagonal-first backtracking)
are pinned with literals.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import brute_distance, valid_warp_path
from tensormotion import _dtw
from tensormotion.alignment import (
    accumulated_cost,
    active_backend,
    available_backends,
    dtw,
    locate_in_reference,
    use_backend,
    warmup,
)
from tensormotion.cycles import build_reference, extend_reference
from tensormotion.kinematics import SPACE_JOINT_ANGLE, MotionSequence


def _restore_backend(previous):
    use_backend(previous)


@pytest.fixture
def each_backend(request):
    """Run the decorated test once per available backend."""
    previous = active_backend()
    use_backend(request.param)
    yield request.param
    _restore_backend(previous)


def _param_backends(metafunc_marker=None):
    return pytest.mark.parametrize(
        "each_backend", available_backends(), indirect=True
    )


class TestDtwDistance:
    """Distance values against the exhaustive oracle."""

    @_param_backends()
    def test_identity_is_exactly_zero(self, each_backend):
        rng = np.random.default_rng(70)
        s = rng.standard_normal((40, 3))
        result = dtw(s, s)
        assert result.distance == 0.0
        np.testing.assert_array_equal(
            result.path, np.column_stack([np.arange(40), np.arange(40)])
        )

    @_param_backends()
    def test_single_frames(self, each_backend):
        result = dtw(np.array([1.5]), np.array([-0.5]))
        assert result.distance == pytest.approx(2.0)
        assert result.matched_end == 0

    @_param_backends()
    def test_three_vs_two_frozen(self, each_backend):
        """Costs [[0,2],[1,1],[2,0]]: cheapest path hugs the first column."""
        result = dtw(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]))
        assert result.distance == pytest.approx(1.0)
        assert [tuple(p) for p in result.path] == [(0, 0), (1, 0), (2, 1)]

    @_param_backends()
    def test_matches_brute_force_all_flags(self, each_backend):
        rng = np.random.default_rng(71)
        for trial in range(60):
            n_q = int(rng.integers(1, 6))
            n_r = int(rng.integers(1, 6))
            channels = int(rng.integers(1, 3))
            q = rng.integers(0, 3, (n_q, channels)).astype(float)
            r = rng.integers(0, 3, (n_r, channels)).astype(float)
            open_end = bool(rng.integers(0, 2))
            open_begin = bool(rng.integers(0, 2))
            got = dtw(q, r, open_end=open_end, open_begin=open_begin)
            expected = brute_distance(
                q, r, open_begin=open_begin, open_end=open_end
            )
            assert got.distance == pytest.approx(expected, abs=1e-9), (
                trial, n_q, n_r, open_begin, open_end
            )

    @_param_backends()
    def test_path_cost_equals_distance(self, each_backend):
        rng = np.random.default_rng(72)
        for _ in range(20):
            q = rng.standard_normal((int(rng.integers(2, 12)), 2))
            r = rng.standard_normal((int(rng.integers(2, 12)), 2))
            open_begin = bool(rng.integers(0, 2))
            result = dtw(q, r, open_begin=open_begin, open_end=True)
            assert valid_warp_path(
                result.path, len(q), len(r), open_begin
            )
            cost = sum(
                np.linalg.norm(q[i] - r[j]) for i, j in result.path
            )
            assert cost == pytest.approx(result.distance, abs=1e-9)

    @_param_backends()
    def test_open_end_tie_prefers_earliest_column(self, each_backend):
        result = dtw(np.array([0.0]), np.array([0.0, 0.0, 1.0]), open_end=True)
        assert result.distance == 0.0
        assert result.matched_end == 0

    def test_backends_agree_on_large_inputs(self):
        if len(available_backends()) < 2:
            pytest.skip("only one backend available")
        rng = np.random.default_rng(73)
        q = rng.standard_normal((50, 27))
        r = rng.standard_normal((260, 27))
        results = {}
        previous = active_backend()
        try:
            for name in available_backends():
                use_backend(name)
                results[name] = dtw(q, r, open_end=True, open_begin=True)
        finally:
            use_backend(previous)
        a, b = results.values()
        assert a.distance == pytest.approx(b.distance, rel=1e-12)
        assert a.matched_end == b.matched_end


class TestNumpySizeSwitch:
    """Both numpy dynamic programs, just below and just above the switch."""

    WIDTHS = (_dtw._SCALAR_MAX_WIDTH, _dtw._SCALAR_MAX_WIDTH + 1)

    @pytest.fixture(autouse=True)
    def numpy_backend(self):
        previous = use_backend("numpy")
        yield
        use_backend(previous)

    @pytest.mark.parametrize("open_begin", [False, True])
    @pytest.mark.parametrize("n_r", WIDTHS)
    def test_last_row_matches_brute_force(self, n_r, open_begin):
        rng = np.random.default_rng(76 + n_r)
        q = rng.integers(0, 3, (3, 2)).astype(float)
        r = rng.integers(0, 3, (n_r, 2)).astype(float)
        acc = accumulated_cost(q, r, open_begin=open_begin)
        assert acc.shape == (3, n_r)
        expected = [
            brute_distance(q, r[: j + 1], open_begin=open_begin)
            for j in range(n_r)
        ]
        np.testing.assert_allclose(acc[-1], expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n_r", WIDTHS)
    def test_open_first_row_is_channel_loop_cost(self, n_r):
        """Cell costs equal a channel-ordered sum of squares, bit for bit."""
        rng = np.random.default_rng(79)
        scale = 10.0 ** rng.uniform(-3, 3, 27)
        q = rng.standard_normal((2, 27)) * scale
        r = rng.standard_normal((n_r, 27)) * scale
        expected = np.zeros(n_r)
        for k in range(27):
            d = q[0, k] - r[:, k]
            expected += d * d
        acc = accumulated_cost(q, r, open_begin=True)
        np.testing.assert_array_equal(acc[0], np.sqrt(expected))

    @pytest.mark.parametrize("open_begin", [False, True])
    @pytest.mark.parametrize("n", WIDTHS)
    def test_identity_diagonal_is_exactly_zero(self, n, open_begin):
        s = np.random.default_rng(77).standard_normal((n, 3))
        acc = accumulated_cost(s, s, open_begin=open_begin)
        assert np.all(np.diag(acc) == 0.0)

    @pytest.mark.parametrize("open_begin", [False, True])
    def test_paths_agree_on_tall_wide_input(self, monkeypatch, open_begin):
        rng = np.random.default_rng(78)
        q = rng.standard_normal((40, 4))
        r = rng.standard_normal((3 * _dtw._SCALAR_MAX_WIDTH, 4))
        scanned = accumulated_cost(q, r, open_begin=open_begin)
        monkeypatch.setattr(_dtw, "_SCALAR_MAX_WIDTH", r.shape[0])
        scalar = accumulated_cost(q, r, open_begin=open_begin)
        np.testing.assert_allclose(scalar, scanned, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("form", ["array", "rows"])
    @pytest.mark.parametrize("open_begin", [False, True])
    @pytest.mark.parametrize("n_r", WIDTHS)
    def test_given_cost_matches_cold_call(self, n_r, open_begin, form):
        rng = np.random.default_rng(81)
        scale = 10.0 ** rng.uniform(-3, 3, 27)
        q = rng.standard_normal((9, 27)) * scale
        r = rng.standard_normal((n_r, 27)) * scale
        cost = cdist(q, r)
        if form == "rows":
            # oldest row first out of a ring whose oldest slot is 4
            ring = np.roll(cost, 4, axis=0)
            cost = [*ring[4:], *ring[:4]]
        cold = accumulated_cost(q, r, open_begin=open_begin)
        given = accumulated_cost(q, r, open_begin=open_begin, cost=cost)
        np.testing.assert_array_equal(given, cold)

    @pytest.mark.parametrize("n_r", WIDTHS)
    def test_given_cost_is_used(self, n_r):
        q = np.ones((3, 2))
        r = np.zeros((n_r, 2))
        acc = accumulated_cost(q, r, open_begin=True, cost=np.zeros((3, n_r)))
        assert acc.shape == (3, n_r)
        assert np.all(acc == 0.0)


class TestDtwValidation:
    """Input checking."""

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dtw(np.zeros((4, 2)), np.zeros((5, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw(np.zeros((0, 2)), np.zeros((5, 2)))

    def test_non_finite_rejected(self):
        q = np.zeros((3, 2))
        q[1, 0] = np.inf
        with pytest.raises(ValueError):
            dtw(q, np.zeros((5, 2)))

    @pytest.mark.parametrize(
        "cost",
        [
            np.zeros((2, 5)),
            np.zeros((4, 5)),
            np.zeros((3, 4)),
            np.zeros((3, 5, 1)),
            np.zeros(3),
            [np.zeros(5), np.zeros(4), np.zeros(5)],
        ],
        ids=["rows-short", "rows-long", "cols-short", "3-d", "1-d", "ragged"],
    )
    def test_cost_of_wrong_shape_rejected(self, cost):
        with pytest.raises(ValueError, match="cost"):
            accumulated_cost(np.zeros((3, 2)), np.zeros((5, 2)), cost=cost)


class TestBackendSelection:
    """Runtime and environment backend switching."""

    def test_use_backend_returns_previous(self):
        previous = active_backend()
        try:
            before = use_backend("numpy")
            assert before == previous
            assert active_backend() == "numpy"
        finally:
            use_backend(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            use_backend("gpu")

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_warmup_runs(self):
        warmup()

    def test_env_var_forces_numpy(self):
        code = (
            "from tensormotion.alignment import active_backend;"
            "print(active_backend())"
        )
        env = dict(os.environ, TENSORMOTION_BACKEND="numpy")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "numpy"

    def test_env_var_bogus_value_fails_loudly(self):
        code = "import tensormotion.alignment"
        env = dict(os.environ, TENSORMOTION_BACKEND="gpu")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode != 0


class TestLocateInReference:
    """Window localization inside an extended reference."""

    @pytest.fixture
    def reference(self):
        rng = np.random.default_rng(74)
        t = np.linspace(0.0, 2 * np.pi, 120, endpoint=False)
        frames = np.stack(
            [
                1.2 + 0.8 * np.sin(t + k)[:, None] * np.ones(3)
                for k in range(2)
            ],
            axis=1,
        )
        frames += 0.01 * rng.standard_normal(frames.shape)
        frames = np.clip(frames, 0.05, np.pi - 0.05)
        seq = MotionSequence(
            frames=frames,
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((120, 3)),
        )
        return extend_reference(build_reference([seq]), 30)

    def test_exact_slice_found(self, reference):
        window = MotionSequence(
            frames=reference.frames[80:110],
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=reference.root_track[80:110],
        )
        assert locate_in_reference(window, reference) == 109

    def test_noisy_slice_found_nearby(self, reference):
        rng = np.random.default_rng(75)
        frames = reference.frames[40:80] + 0.005 * rng.standard_normal(
            reference.frames[40:80].shape
        )
        window = MotionSequence(
            frames=np.clip(frames, 0.0, np.pi),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=reference.root_track[40:80],
        )
        assert abs(locate_in_reference(window, reference) - 79) <= 2

    def test_layout_mismatch_rejected(self, reference):
        window = MotionSequence(
            frames=np.full((10, 1, 3), 0.5),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid",),
            root_track=np.zeros((10, 3)),
        )
        with pytest.raises(ValueError):
            locate_in_reference(window, reference)

    def test_window_longer_than_reference_rejected(self, reference):
        window = MotionSequence(
            frames=np.full((200, 2, 3), 0.5),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((200, 3)),
        )
        with pytest.raises(ValueError):
            locate_in_reference(window, reference)
