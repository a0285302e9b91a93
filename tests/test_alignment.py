"""Warping-distance tests.

The dynamic program is checked against exhaustive path enumeration
(helpers.brute_distance) across endpoint-flag combinations. Its two
forms (scalar recurrence for narrow references, row scan for wide ones)
are checked on both sides of their size switch, also when the caller
hands in the cost rows as a ``CostRows`` ring, admitted at once or in
batches as the online predictor's is, and against each other on inputs
of the online lookup's channel count. Tie-break rules (earliest match column,
diagonal-first backtracking) are pinned with literals. The pruned scan
(``prune=True``) is checked against the full one: the located index on
random inputs on both sides of its width switch, its worst cases, exact
and near ties, the cases where it must change nothing, and the share of
cells a cold call computes. ``prune=True`` returns only the last row of
a two-row buffer, which must equal the last row of the pruned kernel run
with one buffer row per query frame; the interior cells are checked on
that whole matrix. Fed by a ring admitted in batches, lazily filled or
computed in full, it must give the cold call's last row and matrix bit
for bit on each of its paths.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import brute_distance, valid_warp_path
from tensormotion import _dtw
from tensormotion.alignment import (
    accumulated_cost,
    dtw,
    locate_in_reference,
    warmup,
)
from tensormotion.cycles import build_reference, extend_reference
from tensormotion.kinematics import SPACE_JOINT_ANGLE, MotionSequence


class TestDtwDistance:
    """Distance values against the exhaustive oracle."""

    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(70)
        s = rng.standard_normal((40, 3))
        result = dtw(s, s)
        assert result.distance == 0.0
        np.testing.assert_array_equal(
            result.path, np.column_stack([np.arange(40), np.arange(40)])
        )

    def test_single_frames(self):
        result = dtw(np.array([1.5]), np.array([-0.5]))
        assert result.distance == pytest.approx(2.0)
        assert result.matched_end == 0

    def test_three_vs_two_frozen(self):
        """Costs [[0,2],[1,1],[2,0]]: cheapest path hugs the first column."""
        result = dtw(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0]))
        assert result.distance == pytest.approx(1.0)
        assert [tuple(p) for p in result.path] == [(0, 0), (1, 0), (2, 1)]

    def test_matches_brute_force_all_flags(self):
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

    def test_path_cost_equals_distance(self):
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

    def test_open_end_tie_prefers_earliest_column(self):
        result = dtw(np.array([0.0]), np.array([0.0, 0.0, 1.0]), open_end=True)
        assert result.distance == 0.0
        assert result.matched_end == 0


class TestNumpySizeSwitch:
    """Both numpy dynamic programs, just below and just above the switch."""

    WIDTHS = (_dtw._SCALAR_MAX_WIDTH, _dtw._SCALAR_MAX_WIDTH + 1)

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

    @pytest.mark.parametrize("open_begin", [False, True])
    def test_dynamic_programs_agree_on_large_inputs(self, open_begin):
        """Both forms on one cost matrix of 27-channel frames."""
        rng = np.random.default_rng(73)
        cost = cdist(
            rng.standard_normal((50, 27)), rng.standard_normal((260, 27))
        )
        scanned = _dtw._row_scan(cost, open_begin, len(cost))
        scalar = _dtw._scalar_recurrence(cost.tolist(), open_begin)
        np.testing.assert_allclose(scalar, scanned, rtol=1e-12, atol=0)
        assert np.argmin(scalar[-1]) == np.argmin(scanned[-1])

    @pytest.mark.parametrize("form", ["array", "rows"])
    @pytest.mark.parametrize("open_begin", [False, True])
    @pytest.mark.parametrize("n_r", WIDTHS)
    def test_given_cost_matches_cold_call(self, n_r, open_begin, form):
        """``array``: the query admitted as one batch into a fresh ring.
        ``rows``: admitted in batches after older frames, so the ring's
        rows are rotated."""
        rng = np.random.default_rng(81)
        scale = 10.0 ** rng.uniform(-3, 3, 27)
        q = rng.standard_normal((9, 27)) * scale
        r = rng.standard_normal((n_r, 27)) * scale
        ring = _dtw.CostRows(r, len(q))
        if form == "array":
            ring.admit(q)
            assert ring.order[0] == 0
        else:
            # four older frames first, so the window's oldest slot is 4
            for batch in (rng.standard_normal((4, 27)), q[:5], q[5:]):
                ring.admit(batch)
            assert ring.order[0] == 4
        cold = accumulated_cost(q, r, open_begin=open_begin)
        given = accumulated_cost(q, r, open_begin=open_begin, cost=ring)
        np.testing.assert_array_equal(given, cold)

    @pytest.mark.parametrize("n_r", WIDTHS)
    def test_given_cost_is_used(self, monkeypatch, n_r):
        rng = np.random.default_rng(82)
        q = rng.standard_normal((3, 2))
        r = rng.standard_normal((n_r, 2))
        cold = accumulated_cost(q, r, open_begin=True)
        ring = _dtw.CostRows(r, len(q))
        ring.admit(q)

        def unused(*args, **kwargs):
            raise AssertionError("cdist called on a filled ring")

        monkeypatch.setattr(_dtw, "cdist", unused)
        acc = accumulated_cost(q, r, open_begin=True, cost=ring)
        np.testing.assert_array_equal(acc, cold)


class TestPrunedScan:
    """``prune=True`` returns only the last row, keeps its argmin and skips
    cells. The pruned scan's other rows are checked on the kernel run
    with a buffer of one row per query frame."""

    WIDTH = _dtw._PRUNE_MIN_WIDTH

    @staticmethod
    def _pair(q, r):
        """The pruned scan's whole matrix and the full matrix. The last row
        ``prune=True`` returns from its two-row buffer must equal the last
        row of the whole pruned matrix, bit for bit; below the prune width
        that is the full matrix."""
        full = accumulated_cost(q, r, open_begin=True)
        if len(r) < _dtw._PRUNE_MIN_WIDTH:
            pruned = full
        else:
            ring = _dtw.CostRows(r, len(q))
            ring.admit(q)
            pruned = _dtw._pruned_scan(ring, _dtw._reach(q, r), len(q))
        last = accumulated_cost(q, r, open_begin=True, prune=True)
        assert last.shape == (1, len(r))
        np.testing.assert_array_equal(last, pruned[-1:])
        return pruned, full

    @staticmethod
    def _rounding(cost, value):
        """The bound ``d`` of ``_dtw._limits`` for cells of ``value``, with
        the largest cost in place of the bound on every cost."""
        n_q, n_r = cost.shape
        return (
            3 * np.finfo(float).eps * (n_q + n_r) * (value + n_r * cost.max())
        )

    def test_random_inputs_keep_the_located_index(self):
        """400 inputs on both sides of the width switch, magnitudes 1e-150
        to 1e150, i.i.d. or random-walk references; a third hold the query
        exactly, so the minimum is 0."""
        rng = np.random.default_rng(90)
        pruned_somewhere = 0
        for trial in range(400):
            n_r = int(rng.integers(self.WIDTH - 50, self.WIDTH + 350))
            n_q = int(rng.integers(2, 60))
            channels = int(rng.integers(1, 5))
            scale = 10.0 ** rng.uniform(-150, 150)
            r = rng.standard_normal((n_r, channels))
            if trial % 2:
                r = np.cumsum(r, axis=0)
            r *= scale
            start = int(rng.integers(0, n_r - n_q + 1))
            q = r[start : start + n_q].copy()
            if trial % 3 == 1:
                q += 0.3 * scale * rng.standard_normal(q.shape)
            elif trial % 3 == 2:
                q = 5 * scale * rng.standard_normal(q.shape)
            cost = cdist(q, r)
            pruned, full = self._pair(q, r)
            j = int(np.argmin(full[-1]))
            assert int(np.argmin(pruned[-1])) == j, trial
            best = full[-1, j]
            assert abs(pruned[-1, j] - best) <= max(
                1e-12 * best, self._rounding(cost, best)
            ), trial
            computed = np.isfinite(pruned)
            assert np.all(
                pruned[computed]
                >= full[computed] - self._rounding(cost, full[computed])
            ), trial
            pruned_somewhere += not computed.all()
        assert pruned_somewhere > 200

    def test_skips_most_cells_of_a_located_window(self):
        rng = np.random.default_rng(93)
        r = np.cumsum(rng.standard_normal((2 * self.WIDTH, 6)), axis=0)
        q = r[900:1140] + 0.3 * rng.standard_normal((240, 6))
        pruned, full = self._pair(q, r)
        assert np.argmin(pruned[-1]) == np.argmin(full[-1])
        assert np.isfinite(pruned).mean() < 0.25

    def test_cold_call_computes_only_the_cells_it_reads(self, monkeypatch):
        """A cold call admits its query into a fresh ring, which computes
        cells as the scan reads them, not the whole matrix."""
        computed = []

        def counted(a, b, **kwargs):
            computed.append(len(a) * len(b))
            return cdist(a, b, **kwargs)

        rng = np.random.default_rng(93)
        r = np.cumsum(rng.standard_normal((2 * self.WIDTH, 6)), axis=0)
        q = r[900:1140] + 0.3 * rng.standard_normal((240, 6))
        monkeypatch.setattr(_dtw, "cdist", counted)
        accumulated_cost(q, r, open_begin=True, prune=True)
        assert 0 < sum(computed) < 0.5 * q.shape[0] * r.shape[0]

    @pytest.mark.parametrize("case", ["constant", "noise", "reversed"])
    def test_worst_cases_keep_the_located_index(self, case):
        """Inputs where the bound is loose. On a constant cost and on noise
        no diagonal stands out, so the full scan runs; a window reversed
        in time still prunes."""
        rng = np.random.default_rng(91)
        n_q, n_r = 120, self.WIDTH + 500
        if case == "constant":
            q, r = np.zeros((n_q, 2)), np.ones((n_r, 2))
        elif case == "noise":
            q, r = rng.random((n_q, 8)), rng.random((n_r, 8))
        else:
            r = np.cumsum(rng.standard_normal((n_r, 3)), axis=0)
            q = r[700 : 700 + n_q][::-1].copy()
        pruned, full = self._pair(q, r)
        assert np.argmin(pruned[-1]) == np.argmin(full[-1])
        if case != "reversed":
            np.testing.assert_array_equal(pruned, full)

    @pytest.mark.parametrize("nudge", [0.0, 4.0, -4.0])
    def test_ties_fall_back_to_the_full_scan(self, nudge):
        """The query sits twice in the reference, the second copy exact or
        a few ulps off: the full scan decides, so the matrices agree."""
        rng = np.random.default_rng(92)
        r = np.cumsum(rng.standard_normal((self.WIDTH + 200, 3)), axis=0)
        q = r[400:430].copy()
        r[1200:1230] = q * (1 + nudge * np.finfo(float).eps)
        pruned, full = self._pair(q, r)
        np.testing.assert_array_equal(pruned, full)

    @pytest.mark.parametrize(
        "open_begin, extra", [(False, 100), (True, -1)], ids=["closed", "narrow"]
    )
    def test_changes_nothing_when_closed_or_narrow(self, open_begin, extra):
        """Only the last row is returned, and it is the full one's."""
        rng = np.random.default_rng(94)
        r = np.cumsum(rng.standard_normal((self.WIDTH + extra, 4)), axis=0)
        q = r[300:360] + 0.1 * rng.standard_normal((60, 4))
        np.testing.assert_array_equal(
            accumulated_cost(q, r, open_begin=open_begin, prune=True),
            accumulated_cost(q, r, open_begin=open_begin)[-1:],
        )


class TestRingFedPrunedScan:
    """A lazily filled ``CostRows`` ring gives the pruned last row and
    matrix of a cold call bit for bit on every path of the scan: where it
    prunes, where a row's span covers over half the width, where it falls
    back to the full scan, and where the nearest reference frame is not
    unique, so a row's minimum must come from the full row."""

    WIDTH = _dtw._PRUNE_MIN_WIDTH

    @staticmethod
    def _assert_ring_fed_equals_cold(q, r):
        """Admit ``q`` in batches of 40 frames, as the online loop does,
        into a ring read lazily and into one whose rows are all computed
        before the call, and compare both last rows with the cold call's,
        and both whole pruned matrices (the kernel run with a buffer of
        one row per query frame) with a cold ring's; return the lazy
        ring."""
        cold = accumulated_cost(q, r, open_begin=True, prune=True)
        reach = _dtw._reach(q, r)
        fresh = _dtw.CostRows(r, len(q))
        fresh.admit(q)
        whole = _dtw._pruned_scan(fresh, reach, len(q))
        rings = _dtw.CostRows(r, len(q)), _dtw.CostRows(r, len(q))
        for ring in rings:
            for start in range(0, len(q), 40):
                ring.admit(q[start : start + 40])
            assert ring.tree is not None
        rings[1].filled()
        for ring in rings:
            np.testing.assert_array_equal(
                accumulated_cost(q, r, open_begin=True, cost=ring, prune=True),
                cold,
            )
            np.testing.assert_array_equal(
                _dtw._pruned_scan(ring, reach, len(q)), whole
            )
        return rings[0]

    @staticmethod
    def _partial(ring):
        return any(b - a < ring.width for a, b in zip(ring.lo, ring.hi))

    @pytest.mark.parametrize("case", ["constant", "noise", "reversed"])
    def test_worst_cases(self, case):
        """On a constant cost and on noise no diagonal stands out and the
        full scan runs; a window reversed in time still prunes."""
        rng = np.random.default_rng(91)
        n_q, n_r = 120, self.WIDTH + 500
        if case == "constant":
            q, r = np.zeros((n_q, 2)), np.ones((n_r, 2))
        elif case == "noise":
            q, r = rng.random((n_q, 8)), rng.random((n_r, 8))
        else:
            r = np.cumsum(rng.standard_normal((n_r, 3)), axis=0)
            q = r[700 : 700 + n_q][::-1].copy()
        ring = self._assert_ring_fed_equals_cold(q, r)
        assert self._partial(ring) == (case == "reversed")

    @pytest.mark.parametrize("nudge", [0.0, 4.0, -4.0])
    def test_ties(self, nudge):
        rng = np.random.default_rng(92)
        r = np.cumsum(rng.standard_normal((self.WIDTH + 200, 3)), axis=0)
        q = r[400:430].copy()
        r[1200:1230] = q * (1 + nudge * np.finfo(float).eps)
        self._assert_ring_fed_equals_cold(q, r)

    def test_row_with_no_live_cell(self, monkeypatch):
        """A limit below zero leaves no cell of its row live (costs are
        non-negative), which sends the scan to the full one."""
        limits = _dtw._limits

        def cut(cost, reach):
            rows, tol = limits(cost, reach)
            rows[40] = -1.0
            return rows, tol

        monkeypatch.setattr(_dtw, "_limits", cut)
        rng = np.random.default_rng(93)
        r = np.cumsum(rng.standard_normal((self.WIDTH + 300, 3)), axis=0)
        q = r[500:620] + 0.3 * rng.standard_normal((120, 3))
        ring = self._assert_ring_fed_equals_cold(q, r)
        assert not self._partial(ring)

    def test_span_over_half_the_width(self):
        """Early rows of this window have live spans wider than half the
        row, which the scan computes at full width; later rows prune."""
        rng = np.random.default_rng(0)
        r = np.cumsum(rng.standard_normal((self.WIDTH + 300, 3)), axis=0)
        q = r[500:620] + 0.3 * rng.standard_normal((120, 3))
        ring = self._assert_ring_fed_equals_cold(q, r)
        full = [b - a == ring.width for a, b in zip(ring.lo, ring.hi)]
        assert any(full[1:]) and not all(full)

    def test_duplicated_reference_frames(self):
        """The reference opens with a copy of 200 of its frames, as an
        extended reference does, and the window starts inside the copied
        stretch: those frames have no unique nearest reference frame, so
        their rows' minima come from the full rows, and the scan still
        prunes."""
        rng = np.random.default_rng(94)
        walk = np.cumsum(rng.standard_normal((self.WIDTH + 300, 3)), axis=0)
        r = np.concatenate([walk[400:600], walk])
        q = walk[500:620] + 0.2 * rng.standard_normal((120, 3))
        ring = _dtw.CostRows(r, len(q))
        ring.admit(q)
        unknown = np.isnan(ring.floor)
        assert unknown[:100].all() and not unknown[100:].any()
        ring = self._assert_ring_fed_equals_cold(q, r)
        assert not np.isnan(ring.floor).any()
        assert self._partial(ring)

    def test_ring_of_wrong_shape_rejected(self):
        q = np.zeros((3, 2))
        with pytest.raises(ValueError, match="cost"):
            ring = _dtw.CostRows(np.zeros((6, 2)), 3)
            accumulated_cost(q, np.zeros((5, 2)), cost=ring)


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
            _dtw.CostRows(np.zeros((4, 2)), 3),
            np.zeros((3, 5)),
        ],
        ids=[
            "rows-short", "rows-long", "cols-short", "3-d", "1-d", "ragged",
            "ring-cols-short", "array",
        ],
    )
    def test_cost_of_wrong_shape_rejected(self, cost):
        """Only a ``CostRows`` of the query's frames against the
        reference is accepted; arrays of any shape, the right one too,
        are rejected."""
        with pytest.raises(ValueError, match="cost"):
            accumulated_cost(np.zeros((3, 2)), np.zeros((5, 2)), cost=cost)


class TestBackendSelection:
    """The warm-up call that criteria 4 and 6 make before timing."""

    def test_warmup_runs(self):
        warmup()


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
