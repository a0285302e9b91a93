"""Prediction pipeline tests.

A small two-segment fixture keeps fits fast while exercising every
stage: model placement along the extended reference, phase-based model
selection (including the wrap-around remap), window prediction with
clamping and root policies, the streaming loop, and persistence. The
streaming loop is required to reproduce offline recomputation exactly,
so those comparisons are bitwise. The loop's handling of an occluded
marker is checked on the benchmark's own generated capture, where it
was first seen to end the stream. The online lookup prunes its
alignment, so every located column is compared with the argmin of a
cold, unpruned one: on the small fixture with the prune width lowered,
on a reference of the benchmark's ``stream`` size, and on random
streams that leave the cycle. On the wide reference the cost-row ring
computes cells only as the scan reads them, and a ring whose storage
starts as NaN must give the same batches; on a narrow one it computes
every row in full.
"""

import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensormotion.alignment
import tensormotion.predictor
from tensormotion import _dtw
from tensormotion.cycles import build_reference, extend_reference
from tensormotion.io import DataFormatError
from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    SPACE_JOINT_ANGLE,
    MotionSequence,
    Skeleton,
    from_joint_angles,
    to_joint_angles,
)
from tensormotion.predictor import (
    CoefficientCollection,
    CollectionEntry,
    PipelineConfig,
    build_collection,
    load_collection,
    predict_window,
    run_online,
    save_collection,
    select_coefficient,
)
from tensormotion.regression import RegressionConfig
from tensormotion.tensor_ops import CpFactors


def _skeleton() -> Skeleton:
    return Skeleton(
        joints=("root", "mid", "tip"),
        parents={"mid": "root", "tip": "mid"},
        segment_lengths={"mid": 1.0, "tip": 0.5},
    )


def _reference_cycle(n_frames=45, fps=30.0, seed=80):
    """Smooth two-segment angle cycle with slight noise (frames distinct)."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 2 * np.pi, n_frames, endpoint=False)
    frames = np.stack(
        [
            1.3
            + 0.7
            * np.stack(
                [np.sin(t + 0.3 * k + a) for a in (0.0, 0.9, 1.7)], axis=1
            )
            for k in range(2)
        ],
        axis=1,
    )
    frames += 0.01 * rng.standard_normal(frames.shape)
    frames = np.clip(frames, 0.05, np.pi - 0.05)
    seq = MotionSequence(
        frames=frames,
        frame_rate=fps,
        space=SPACE_JOINT_ANGLE,
        joint_names=("mid", "tip"),
        root_track=np.zeros((n_frames, 3)),
    )
    return build_reference([seq])


def _config(**overrides) -> PipelineConfig:
    base = dict(
        past_seconds=0.5,
        future_seconds=0.2,
        frame_rate=30.0,
        model_stride_frames=5,
        update_stride_frames=4,
        regression=RegressionConfig(
            rank=3, penalty=0.1, max_sweeps=60, seed=0
        ),
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def pipeline():
    ref = _reference_cycle()
    cfg = _config()
    coll = build_collection(ref, cfg)
    ext = extend_reference(ref, cfg.past_frames)
    return ref, cfg, coll, ext


def _window(ext, end, length=15, fps=30.0):
    return MotionSequence(
        frames=ext.frames[end - length + 1 : end + 1],
        frame_rate=fps,
        space=SPACE_JOINT_ANGLE,
        joint_names=("mid", "tip"),
        root_track=ext.root_track[end - length + 1 : end + 1],
    )


class TestPipelineConfig:
    """Windowing parameter validation."""

    def test_frame_conversion(self):
        cfg = _config()
        assert cfg.past_frames == 15
        assert cfg.future_frames == 6

    def test_horizon_longer_than_window_rejected(self):
        with pytest.raises(ValueError):
            _config(past_seconds=0.2, future_seconds=0.5)

    def test_update_stride_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="update stride"):
            _config(update_stride_frames=7)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            _config(past_seconds=0.0)
        with pytest.raises(ValueError):
            _config(frame_rate=-30.0)
        with pytest.raises(ValueError):
            _config(model_stride_frames=0)

    def test_json_round_trip(self):
        cfg = _config(model_stride_frames=3, update_stride_frames=4)
        assert PipelineConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize(
        "edit",
        [
            lambda raw: raw.pop("model_stride_frames"),
            lambda raw: raw.update(horizon_frames=6),
            lambda raw: raw["regression"].pop("seed"),
            lambda raw: raw["regression"].update(sampler="gibbs"),
        ],
        ids=["missing", "unknown", "missing_nested", "unknown_nested"],
    )
    def test_json_field_mismatch_is_format_error(self, edit):
        raw = json.loads(_config().to_json())
        edit(raw)
        with pytest.raises(DataFormatError, match="fields"):
            PipelineConfig.from_json(json.dumps(raw))


class TestBuildCollection:
    """Model placement along the extended reference."""

    def test_anchor_arithmetic(self, pipeline):
        ref, cfg, coll, ext = pipeline
        # 45-frame cycle extended by the 15-frame window: anchors step
        # by 5 from the first full window to the last with a horizon
        expected = list(range(14, 60 - 6, 5))
        assert list(coll.time_indices) == expected
        assert len(coll) == len(expected)

    def test_reference_shorter_than_window_rejected(self):
        ref = _reference_cycle(n_frames=10)
        with pytest.raises(ValueError, match="shorter"):
            build_collection(ref, _config())

    def test_entries_carry_uniform_layout(self, pipeline):
        _, cfg, coll, _ = pipeline
        for entry in coll.entries:
            assert entry.factors.input_shape == (2, 3)
            assert entry.factors.output_shape == (2, 3)
            assert entry.factors.rank == cfg.regression.rank

    def test_each_anchor_runs_the_traced_fit_once(self, pipeline, monkeypatch):
        """Profilers wrap ``tensormotion.predictor.fit``: the build must
        look the fit up there, once per anchor, and keep what it gives."""
        ref, cfg, coll, _ = pipeline
        original = tensormotion.predictor.fit
        results = []

        def counted(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(tensormotion.predictor, "fit", counted)
        again = build_collection(ref, cfg)
        assert len(results) == len(coll)
        for entry, result in zip(again.entries, results):
            assert entry.factors is result.factors

    def test_constant_reference_predicts_constant(self):
        level = 1.1
        seq = MotionSequence(
            frames=np.full((40, 2, 3), level),
            frame_rate=30.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((40, 3)),
        )
        ref = build_reference([seq])
        cfg = _config(
            model_stride_frames=10,
            regression=RegressionConfig(
                rank=1, penalty=1e-8, max_sweeps=30, seed=0
            ),
        )
        coll = build_collection(ref, cfg)
        ext = extend_reference(ref, cfg.past_frames)
        preds = predict_window(
            _window(ext, coll.entries[0].time_index),
            coll.entries[0].factors,
            _skeleton(),
            cfg,
        )
        for frame in preds:
            np.testing.assert_allclose(frame.angles, level, atol=1e-6)


class TestConvergenceReport:
    """A build says how many of its fits hit the sweep cap."""

    def test_capped_fits_are_reported_once(self, caplog):
        cfg = _config(
            regression=RegressionConfig(
                rank=3, penalty=0.1, max_sweeps=2, tolerance=1e-15, seed=0
            )
        )
        with caplog.at_level(logging.WARNING, logger="tensormotion.predictor"):
            build_collection(_reference_cycle(), cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "8 of 8 fits stopped at max_sweeps=2 without converging"
        ]

    def test_converged_build_is_silent(self, caplog):
        cfg = _config(
            regression=RegressionConfig(
                rank=1, penalty=0.1, max_sweeps=200, seed=0
            )
        )
        with caplog.at_level(logging.WARNING, logger="tensormotion.predictor"):
            build_collection(_reference_cycle(), cfg)
        assert caplog.records == []


class TestSelectCoefficient:
    """Phase lookup against the extended reference."""

    def test_window_at_anchor_selects_that_anchor(self, pipeline):
        _, _, coll, ext = pipeline
        for end in (14, 34, 49):
            idx, factors = select_coefficient(_window(ext, end), ext, coll)
            assert coll.entries[idx].time_index == end
            assert factors is coll.entries[idx].factors

    def test_window_between_anchors_selects_nearest(self, pipeline):
        _, _, coll, ext = pipeline
        idx, _ = select_coefficient(_window(ext, 36), ext, coll)
        assert coll.entries[idx].time_index == 34
        idx, _ = select_coefficient(_window(ext, 37), ext, coll)
        assert coll.entries[idx].time_index == 39

    def test_match_in_duplicated_head_wraps_forward(self, pipeline):
        """Content ending before the first anchor is late-cycle phase."""
        _, _, coll, ext = pipeline
        window = MotionSequence(
            frames=ext.frames[2:12],
            frame_rate=30.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=ext.root_track[2:12],
        )
        idx, _ = select_coefficient(window, ext, coll)
        assert coll.entries[idx].time_index == 49


class TestPredictWindow:
    """Single-window prediction."""

    def test_horizon_indexing_and_shapes(self, pipeline):
        _, cfg, coll, ext = pipeline
        preds = predict_window(
            _window(ext, 29), coll.entries[3].factors, _skeleton(), cfg,
            model_index=3,
        )
        assert len(preds) == cfg.future_frames
        for h, frame in enumerate(preds, start=1):
            assert frame.horizon_frames == h
            assert frame.model_index == 3
            assert frame.angles.shape == (2, 3)
            assert frame.coordinates.shape == (3, 3)

    def test_reproduces_training_window(self, pipeline):
        """Each model approximately maps its own window to its target."""
        _, cfg, coll, ext = pipeline
        worst = 0.0
        for i, entry in enumerate(coll.entries):
            e = entry.time_index
            preds = predict_window(
                _window(ext, e), entry.factors, _skeleton(), cfg, model_index=i
            )
            got = np.stack([p.angles for p in preds])
            truth = ext.frames[e + 1 : e + 1 + cfg.future_frames]
            worst = max(worst, float(np.abs(got - truth).mean()))
        assert worst < 0.1

    def test_out_of_range_predictions_are_clamped_and_counted(self, pipeline):
        _, cfg, _, ext = pipeline
        # the doubling map as a factorized tensor: one rank-one term
        # per (segment, axis) basis pair
        pairs = [(i, j) for i in range(2) for j in range(3)]
        e2 = np.eye(2)
        e3 = np.eye(3)
        u1 = np.column_stack([e2[:, i] for i, _ in pairs])
        u2 = np.column_stack([e3[:, j] for _, j in pairs])
        doubling = CpFactors(
            input_factors=(2.0 * u1, u2),
            output_factors=(u1, u2),
        )
        window = _window(ext, 30)
        preds = predict_window(window, doubling, _skeleton(), cfg)
        tail = 2.0 * window.frames[-cfg.future_frames :]
        overflow = np.count_nonzero(tail > np.pi, axis=(1, 2))
        for h, frame in enumerate(preds):
            assert frame.clamped_entries == overflow[h]
            assert frame.angles.max() <= np.pi

    def test_root_policies(self, pipeline):
        _, cfg, coll, ext = pipeline
        window = _window(ext, 29)
        track = np.zeros((15, 3))
        track[:, 0] = np.arange(15.0)
        window = MotionSequence(
            frames=window.frames,
            frame_rate=30.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=track,
        )
        factors = coll.entries[3].factors
        held = predict_window(
            window, factors, _skeleton(), cfg, root_policy="hold"
        )
        moved = predict_window(
            window, factors, _skeleton(), cfg, root_policy="linear"
        )
        sk = _skeleton()
        for h, (a, b) in enumerate(zip(held, moved), start=1):
            np.testing.assert_allclose(a.coordinates[0], [14.0, 0.0, 0.0])
            np.testing.assert_allclose(b.coordinates[0], [14.0 + h, 0.0, 0.0])
        with pytest.raises(ValueError, match="policy"):
            predict_window(
                window, factors, _skeleton(), cfg, root_policy="orbit"
            )

    def test_layout_validation(self, pipeline):
        _, cfg, coll, ext = pipeline
        factors = coll.entries[0].factors
        short = _window(ext, 29, length=10)
        with pytest.raises(ValueError, match="frames"):
            predict_window(short, factors, _skeleton(), cfg)
        cart = from_joint_angles(_window(ext, 29), _skeleton())
        with pytest.raises(ValueError, match="angle-space"):
            predict_window(cart, factors, _skeleton(), cfg)


@pytest.fixture(scope="module")
def stream_setup(pipeline):
    ref, cfg, coll, _ = pipeline
    sk = _skeleton()
    # three laps of the reference as Cartesian frames
    laps = np.concatenate([ref.angles.frames] * 3)
    roots = np.concatenate([ref.angles.root_track] * 3)
    angle_seq = MotionSequence(
        frames=laps,
        frame_rate=cfg.frame_rate,
        space=SPACE_JOINT_ANGLE,
        joint_names=("mid", "tip"),
        root_track=roots,
    )
    cart = from_joint_angles(angle_seq, sk)
    return ref, cfg, coll, sk, cart


class TestRunOnline:
    """Streaming loop semantics."""

    def test_batch_schedule(self, stream_setup):
        ref, cfg, coll, sk, cart = stream_setup
        batches = list(run_online(iter(cart.frames), ref, coll, sk))
        stamps = [b.last_observed_frame for b in batches]
        expected = list(range(14, cart.n_frames, cfg.update_stride_frames))
        assert stamps == expected
        assert all(b.gap_frames == 0 for b in batches)

    def test_matches_offline_recomputation_exactly(self, stream_setup):
        ref, _, coll, sk, cart = stream_setup
        # the 15-frame window takes 3-frame writes whole; 4-frame writes
        # wrap around the end of the cost-row ring
        for stride in (3, 4):
            cfg = replace(coll.config, update_stride_frames=stride)
            strided = CoefficientCollection(config=cfg, entries=coll.entries)
            for dropped_stamps in (False, True):
                _assert_matches_offline(
                    ref, strided, sk, cart.frames, dropped_stamps
                )

    def test_each_batch_runs_the_traced_call_chain_once(
        self, stream_setup, monkeypatch
    ):
        """Profilers wrap these module attributes; every update must go
        through each of them exactly once. The matrix the kept cost rows
        give equals a cold call's, bit for bit, and the located column is
        the argmin of a cold, unpruned alignment."""
        _check_traced_call_chain(stream_setup, monkeypatch)

    def test_pruned_lookup_keeps_the_call_chain_and_index(
        self, stream_setup, monkeypatch
    ):
        """The same with the prune width lowered, so that the fixture's
        short reference is pruned too."""
        monkeypatch.setattr(_dtw, "_PRUNE_MIN_WIDTH", 0)
        _check_traced_call_chain(stream_setup, monkeypatch)

    def test_timestamped_stream_reports_gaps(self, stream_setup, caplog):
        ref, cfg, coll, sk, cart = stream_setup
        dt = 1.0 / cfg.frame_rate
        times = np.arange(cart.n_frames) * dt
        times[40:] += 5 * dt  # five frames went missing
        stream = zip(times, cart.frames)
        with caplog.at_level(logging.WARNING, logger="tensormotion.predictor"):
            batches = list(run_online(stream, ref, coll, sk))
        assert "gap" in caplog.text
        gaps = {b.last_observed_frame: b.gap_frames for b in batches}
        assert gaps[42] == 5
        assert all(
            g == 0 for end, g in gaps.items() if end != 42
        )

    def test_duplicate_and_backwards_stamps_are_dropped(
        self, stream_setup, caplog
    ):
        ref, cfg, coll, sk, cart = stream_setup
        frames = np.concatenate([cart.frames] * 5)  # 675 frames
        dt = 1.0 / cfg.frame_rate
        times = np.arange(len(frames)) * dt
        times[400] = times[399]  # duplicate stamp
        times[500] = times[498]  # backwards stamp
        with caplog.at_level(logging.WARNING, logger="tensormotion.predictor"):
            batches = list(run_online(zip(times, frames), ref, coll, sk))
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert all("not later than" in m for m in messages)
        assert sum(b.gap_frames for b in batches) == 0
        # the dropped frames never reach a window, and the frames after
        # them take their stream indices
        kept = np.delete(frames, [400, 500], axis=0)
        clean = list(run_online(iter(kept), ref, coll, sk))
        _assert_same_predictions(batches, clean)

    def test_bad_frame_shape_rejected(self, stream_setup):
        ref, cfg, coll, sk, _ = stream_setup
        with pytest.raises(ValueError, match="shape"):
            list(run_online(iter([np.zeros((2, 3))]), ref, coll, sk))


def _assert_matches_offline(ref, coll, sk, frames, dropped_stamps):
    """Every batch equals the offline recomputation at its position;
    with ``dropped_stamps`` a duplicate and a backwards stamp are
    dropped from the stream first."""
    cfg = coll.config
    if dropped_stamps:
        times = np.arange(len(frames)) / cfg.frame_rate
        times[50] = times[49]  # duplicate stamp
        times[77] = times[70]  # backwards stamp
        stream = zip(times, frames)
        frames = np.delete(frames, [50, 77], axis=0)
    else:
        stream = iter(frames)
    batches = list(run_online(stream, ref, coll, sk))
    stride = cfg.update_stride_frames
    assert len(batches) == (len(frames) - 15) // stride + 1
    ext = extend_reference(ref, cfg.past_frames)
    kept = MotionSequence(
        frames=frames,
        frame_rate=cfg.frame_rate,
        space=SPACE_CARTESIAN,
        joint_names=sk.joints,
    )
    angles, _ = to_joint_angles(kept, sk)
    for batch in batches:
        end = batch.last_observed_frame
        window = MotionSequence(
            frames=angles.frames[end - 14 : end + 1],
            frame_rate=cfg.frame_rate,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=angles.root_track[end - 14 : end + 1],
        )
        idx, factors = select_coefficient(window, ext, coll)
        assert idx == batch.model_index
        offline = predict_window(window, factors, sk, cfg, model_index=idx)
        for a, b in zip(offline, batch.frames):
            np.testing.assert_array_equal(a.angles, b.angles)
            np.testing.assert_array_equal(a.coordinates, b.coordinates)


def _check_traced_call_chain(stream_setup, monkeypatch):
    """Count the calls of each traced layer per batch, compare each
    matrix with a cold call's and each located column with a cold,
    unpruned alignment's argmin."""
    ref, cfg, coll, sk, cart = stream_setup
    calls = {}
    results = []
    located = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            result = original(*args, **kwargs)
            if name == "accumulated_cost":
                kwargs.pop("cost")
                results.append((result, original(*args, **kwargs)))
            elif name == "locate_in_reference":
                located.append((*args[:2], result))
            return result

        monkeypatch.setattr(module, name, counted)

    count(tensormotion.predictor, "select_coefficient")
    count(tensormotion.predictor, "locate_in_reference")
    count(tensormotion.alignment, "accumulated_cost")
    n = 0
    for n, _ in enumerate(run_online(iter(cart.frames), ref, coll, sk), 1):
        assert calls == {
            "select_coefficient": n,
            "locate_in_reference": n,
            "accumulated_cost": n,
        }
    assert n == (cart.n_frames - 15) // cfg.update_stride_frames + 1
    ext_frames = ref.length_frames + cfg.past_frames
    for acc, cold in results:
        assert isinstance(acc, np.ndarray)
        assert acc.shape == (cfg.past_frames, ext_frames)
        np.testing.assert_array_equal(acc, cold)
    _assert_located_as_unpruned(located)


def _assert_located_as_unpruned(located):
    """Each ``(window, reference, index)`` lookup found the argmin of the
    last row of a cold, unpruned alignment."""
    assert located
    for window, reference, index in located:
        q = window.frames.reshape(window.n_frames, -1)
        r = reference.frames.reshape(reference.n_frames, -1)
        full = _dtw.accumulated_cost(q, r, open_begin=True)
        assert index == int(np.argmin(full[-1]))


def _assert_same_predictions(batches, expected):
    """Equal batches bit for bit, apart from ``gap_frames``."""
    assert len(batches) == len(expected)
    for a, b in zip(batches, expected):
        assert a.last_observed_frame == b.last_observed_frame
        assert a.model_index == b.model_index
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.angles, fb.angles)
            np.testing.assert_array_equal(fa.coordinates, fb.coordinates)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _angle_slice(angles: MotionSequence, a: int, b: int) -> MotionSequence:
    return MotionSequence(
        frames=angles.frames[a:b],
        frame_rate=60.0,
        space=SPACE_JOINT_ANGLE,
        joint_names=angles.joint_names,
        root_track=angles.root_track[a:b],
    )


@pytest.fixture(scope="module")
def capture_stream():
    """The benchmark's ``build`` workload, seed 1: five 480-frame training
    cycles at 60 Hz give the reference and a 3-sweep bank; the six
    held-out cycles after them are the stream."""
    sys.path.insert(0, str(PERFBENCH))
    import inputs

    capture = inputs.generate(1, 11, 480)
    joints, parents, lengths = inputs.skeleton_spec()
    sk = Skeleton(joints, parents, lengths)
    cut = capture.ranges[5][0]
    train = MotionSequence(
        frames=capture.frames[:cut],
        frame_rate=60.0,
        space=SPACE_CARTESIAN,
        joint_names=joints,
    )
    angles, _ = to_joint_angles(train, sk)
    cycles = [_angle_slice(angles, a, b) for a, b in capture.ranges[:5]]
    ref = build_reference(cycles, target_frames=480)
    cfg = PipelineConfig(
        past_seconds=4.0,
        future_seconds=1.0,
        frame_rate=60.0,
        model_stride_frames=60,
        update_stride_frames=60,
        regression=RegressionConfig(rank=13, penalty=50.0, max_sweeps=3, seed=0),
    )
    return ref, build_collection(ref, cfg), sk, capture.frames[cut:]


class TestPrunedLookup:
    """The online lookup prunes its alignment and still locates the window
    exactly where a cold, unpruned alignment does."""

    @pytest.fixture(scope="class")
    def wide_stream(self):
        """The benchmark's ``stream`` shape: three 4760-frame training
        cycles at 60 Hz and a cheap bank, so the extended reference (5000
        frames) is wider than the prune width; the stream is the first
        1500 frames of the cycle after them."""
        sys.path.insert(0, str(PERFBENCH))
        import inputs

        capture = inputs.generate(2, 4, 4760)
        joints, parents, lengths = inputs.skeleton_spec()
        sk = Skeleton(joints, parents, lengths)
        cut = capture.ranges[3][0]
        train = MotionSequence(
            frames=capture.frames[:cut],
            frame_rate=60.0,
            space=SPACE_CARTESIAN,
            joint_names=joints,
        )
        angles, _ = to_joint_angles(train, sk)
        ref = build_reference(
            [_angle_slice(angles, a, b) for a, b in capture.ranges[:3]],
            target_frames=4760,
        )
        cfg = PipelineConfig(
            past_seconds=4.0,
            future_seconds=1.0,
            frame_rate=60.0,
            model_stride_frames=120,
            update_stride_frames=60,
            regression=RegressionConfig(rank=13, penalty=50.0, max_sweeps=3, seed=0),
        )
        held = capture.frames[cut : cut + 1500]
        return ref, build_collection(ref, cfg), sk, held

    def test_wide_reference_is_pruned_and_located_exactly(
        self, wide_stream, monkeypatch
    ):
        ref, coll, sk, held = wide_stream
        assert ref.length_frames + coll.config.past_frames >= _dtw._PRUNE_MIN_WIDTH
        located, computed = [], []
        locate = tensormotion.predictor.locate_in_reference
        align = tensormotion.alignment.accumulated_cost

        def recorded_locate(*args, **kwargs):
            index = locate(*args, **kwargs)
            located.append((*args[:2], index))
            return index

        def recorded_align(*args, **kwargs):
            acc = align(*args, **kwargs)
            computed.append(np.isfinite(acc).mean())
            return acc

        monkeypatch.setattr(tensormotion.predictor, "locate_in_reference", recorded_locate)
        monkeypatch.setattr(tensormotion.alignment, "accumulated_cost", recorded_align)
        batches = list(run_online(iter(held), ref, coll, sk))
        assert len(batches) == (len(held) - 240) // 60 + 1
        _assert_located_as_unpruned(located)
        # the lookup really skips cells
        assert np.median(computed) < 0.5

    def test_scan_reads_only_computed_cells(self, wide_stream, monkeypatch):
        """Each ring slot is set to NaN before a new frame takes it, so a
        read of a cell the ring never computed for that frame would carry
        NaN into the matrix and the batches."""
        ref, coll, sk, held = wide_stream
        plain = list(run_online(iter(held), ref, coll, sk))
        rings, located, matrices = [], [], []
        locate = tensormotion.predictor.locate_in_reference
        align = tensormotion.alignment.accumulated_cost

        class Poisoned(_dtw.CostRows):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rings.append(self)

            def admit(self, new):
                for k in range(len(new)):
                    self.cells[(self.admitted + k) % len(self)] = np.nan
                super().admit(new)

        def recorded_locate(*args, **kwargs):
            index = locate(*args, **kwargs)
            located.append((*args[:2], index))
            return index

        def recorded_align(*args, **kwargs):
            acc = align(*args, **kwargs)
            matrices.append(np.isnan(acc).any())
            return acc

        monkeypatch.setattr(tensormotion.predictor, "CostRows", Poisoned)
        monkeypatch.setattr(
            tensormotion.predictor, "locate_in_reference", recorded_locate
        )
        monkeypatch.setattr(tensormotion.alignment, "accumulated_cost", recorded_align)
        batches, skipped = [], []
        for batch in run_online(iter(held), ref, coll, sk):
            batches.append(batch)
            skipped.append(np.isnan(rings[0].cells).mean())
        _assert_same_predictions(batches, plain)
        _assert_located_as_unpruned(located)
        assert len(matrices) == len(batches) and not any(matrices)
        # the ring leaves most cells uncomputed
        assert len(rings) == 1 and rings[0].tree is not None
        assert np.median(skipped) > 0.5

    @settings(max_examples=25, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.sampled_from(["cycle", "noise", "frozen", "reversed"]),
                st.integers(4, 40),
                st.integers(0, 2**16),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_off_cycle_streams_are_located_exactly(self, stream_setup, segments):
        """Random streams that leave the cycle (noise, a frozen pose, the
        cycle backwards), where the bound is loose; the prune width is
        lowered so that the fixture's short reference is pruned."""
        ref, cfg, coll, sk, cart = stream_setup
        laps = cart.frames
        parts = []
        for kind, length, seed in segments:
            rng = np.random.default_rng(seed)
            start = int(rng.integers(0, len(laps) - length))
            piece = laps[start : start + length]
            if kind == "noise":
                piece = piece + 0.5 * rng.standard_normal(piece.shape)
            elif kind == "frozen":
                piece = np.repeat(piece[:1], length, axis=0)
            elif kind == "reversed":
                piece = piece[::-1]
            parts.append(piece)
        # enough on-cycle frames first to fill the first window
        stream = np.concatenate([laps[:15], *parts])
        located = []
        locate = tensormotion.predictor.locate_in_reference

        def recorded(*args, **kwargs):
            index = locate(*args, **kwargs)
            located.append((*args[:2], index))
            return index

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_dtw, "_PRUNE_MIN_WIDTH", 0)
            patch.setattr(tensormotion.predictor, "locate_in_reference", recorded)
            batches = list(run_online(iter(stream), ref, coll, sk))
        assert len(batches) == len(located) == (len(stream) - 15) // 4 + 1
        _assert_located_as_unpruned(located)


class TestNarrowReferenceRing:
    """Below the prune width the full scan reads every cell, so the ring
    computes whole rows as frames arrive and builds no k-d tree."""

    def test_every_row_is_computed_in_full(self, capture_stream, monkeypatch):
        ref, coll, sk, held = capture_stream
        past = coll.config.past_frames
        rings = []

        class Recorded(_dtw.CostRows):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rings.append(self)

        monkeypatch.setattr(tensormotion.predictor, "CostRows", Recorded)
        n = 0
        for n, _ in enumerate(run_online(iter(held), ref, coll, sk), 1):
            (ring,) = rings
            assert ring.width == 720 < _dtw._PRUNE_MIN_WIDTH
            assert ring.tree is None
            assert ring.lo == [0] * past and ring.hi == [720] * past
        assert n == (len(held) - past) // 60 + 1


class TestNonFiniteFrames:
    """An occluded marker costs one frame, not the rest of the stream."""

    @pytest.mark.parametrize("timed", [False, True])
    def test_nan_frame_is_dropped_and_counted_once(
        self, capture_stream, caplog, timed
    ):
        ref, coll, sk, held = capture_stream
        broken = held.copy()
        broken[300, 4, 1] = np.nan
        stream = iter(broken)
        if timed:
            stream = zip(np.arange(len(broken)) / 60.0, broken)
        with caplog.at_level(logging.WARNING, logger="tensormotion.predictor"):
            batches = list(run_online(stream, ref, coll, sk))
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 1
        assert "non-finite" in messages[0]
        clean = list(run_online(iter(np.delete(held, 300, axis=0)), ref, coll, sk))
        # the stream reaches its end
        assert len(batches) == (len(held) - 1 - 240) // 60 + 1
        _assert_same_predictions(batches, clean)
        # frames 0-299 arrive before it; the batch after it ends at 359
        assert [b.gap_frames for b in batches] == [
            int(b.last_observed_frame == 359) for b in batches
        ]
        assert all(b.gap_frames == 0 for b in clean)


class TestPersistence:
    """Collection save/load round trip."""

    def test_round_trip_bit_identical(self, pipeline, tmp_path):
        ref, cfg, coll, ext = pipeline
        path = tmp_path / "collection.npz"
        save_collection(coll, path)
        loaded = load_collection(path)
        assert loaded.config == cfg
        assert len(loaded) == len(coll)
        for a, b in zip(coll.entries, loaded.entries):
            assert a.time_index == b.time_index
            for fa, fb in zip(
                a.factors.input_factors + a.factors.output_factors,
                b.factors.input_factors + b.factors.output_factors,
            ):
                assert fa.tobytes() == fb.tobytes()

    def test_loaded_collection_predicts_identically(self, pipeline, tmp_path):
        ref, cfg, coll, ext = pipeline
        path = tmp_path / "collection.npz"
        save_collection(coll, path)
        loaded = load_collection(path)
        window = _window(ext, 34)
        a = predict_window(window, coll.entries[4].factors, _skeleton(), cfg)
        b = predict_window(window, loaded.entries[4].factors, _skeleton(), cfg)
        for fa, fb in zip(a, b):
            assert fa.angles.tobytes() == fb.angles.tobytes()
            assert fa.coordinates.tobytes() == fb.coordinates.tobytes()

    def test_version_mismatch_rejected(self, pipeline, tmp_path):
        ref, cfg, coll, _ = pipeline
        path = tmp_path / "collection.npz"
        save_collection(coll, path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.int64(99)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_collection(path)


class TestCollectionValidation:
    """Container invariants."""

    def test_non_increasing_indices_rejected(self, pipeline):
        _, cfg, coll, _ = pipeline
        entries = (coll.entries[1], coll.entries[0])
        with pytest.raises(ValueError):
            CoefficientCollection(config=cfg, entries=entries)

    def test_mixed_layouts_rejected(self, pipeline):
        _, cfg, coll, _ = pipeline
        odd = CollectionEntry(
            time_index=99,
            factors=CpFactors(
                input_factors=(np.zeros((3, 2)), np.zeros((3, 2))),
                output_factors=(np.zeros((2, 2)), np.zeros((3, 2))),
            ),
        )
        with pytest.raises(ValueError):
            CoefficientCollection(config=cfg, entries=coll.entries + (odd,))

    def test_empty_rejected(self, pipeline):
        _, cfg, _, _ = pipeline
        with pytest.raises(ValueError):
            CoefficientCollection(config=cfg, entries=())
