"""Acceptance gate: nine numbered checks, one printed line each.

Every check builds its own data, enforces the stated tolerance and
runtime budget, and prints ``[acceptance] criterion N (label): PASS``
(or FAIL before re-raising), so a full run reads as a checklist. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from helpers import _paths, brute_closed, brute_distance, random_tree_motion
from tensormotion.alignment import accumulated_cost, dtw, warmup
from tensormotion.cycles import (
    ReferenceCycle,
    build_reference,
    detect_cycles,
    extend_reference,
    smooth_signal,
)
from tensormotion.evaluation import (
    backtransform_error,
    evaluate_predictions,
    hold_pose_predictions,
)
from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    SPACE_JOINT_ANGLE,
    MotionSequence,
    angles_to_coordinates,
    default_skeleton,
    fix_segment_lengths,
    from_joint_angles,
    segment_distances,
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
from tensormotion.regression import RegressionConfig, fit
from tensormotion.synth import SynthConfig, generate_motion
from tensormotion.tensor_ops import cp_reconstruct
from tensormotion.uncertainty import predictive_variation

METERS_TO_CM = 100.0


@contextmanager
def _criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _slice_angles(seq: MotionSequence, start: int, end: int) -> MotionSequence:
    return MotionSequence(
        frames=seq.frames[start:end],
        frame_rate=seq.frame_rate,
        space=seq.space,
        joint_names=seq.joint_names,
        root_track=seq.root_track[start:end],
    )


class TestAcceptance:
    """The nine checks, in order."""

    def test_criterion_1_ridge_equivalence(self):
        """Full-rank matrix fits match the closed-form ridge solution."""
        with _criterion(1, "matrix ridge equivalence"):
            start = time.perf_counter()
            rng = np.random.default_rng(901)
            for penalty in (0.1, 50.0):
                for _ in range(5):
                    x = rng.standard_normal((50, 6))
                    y = rng.standard_normal((50, 4))
                    closed = np.linalg.solve(
                        x.T @ x + penalty * np.eye(6), x.T @ y
                    )
                    config = RegressionConfig(
                        rank=4, penalty=penalty, max_sweeps=2000,
                        tolerance=1e-14, seed=3,
                    )
                    coeff = cp_reconstruct(fit(x, y, config).factors)
                    rel = np.linalg.norm(coeff - closed) / np.linalg.norm(
                        closed
                    )
                    assert rel <= 1e-5, rel
            assert time.perf_counter() - start < 5.0

    def test_criterion_2_sweep_monotonicity(self):
        """The training objective never increases across sweeps."""
        with _criterion(2, "sweep monotonicity"):
            rng = np.random.default_rng(902)
            for trial in range(100):
                in_shape = tuple(rng.integers(2, 5, rng.integers(1, 3)))
                out_shape = tuple(rng.integers(2, 5, rng.integers(1, 3)))
                n = int(rng.integers(8, 30))
                x = rng.standard_normal((n,) + in_shape)
                y = rng.standard_normal((n,) + out_shape)
                config = RegressionConfig(
                    rank=int(rng.integers(1, 5)),
                    penalty=float(rng.choice([0.1, 1.0, 10.0])),
                    max_sweeps=30, tolerance=1e-14, seed=trial,
                )
                trace = fit(x, y, config).objective_trace
                increases = np.diff(trace)
                allowed = 1e-10 * np.maximum(np.abs(trace[:-1]), 1.0)
                assert np.all(increases <= allowed), trial

    def test_criterion_3_kinematics_round_trip(self):
        """Angles with true distances reproduce the coordinates."""
        with _criterion(3, "kinematics round trip"):
            rng = np.random.default_rng(903)
            skeleton = default_skeleton()
            seq = random_tree_motion(rng, 1000, skeleton)
            start = time.perf_counter()
            angles, distances = to_joint_angles(seq, skeleton)
            recon = from_joint_angles(angles, skeleton, lengths=distances)
            elapsed = time.perf_counter() - start
            assert np.max(np.abs(recon.frames - seq.frames)) <= 1e-9
            unit = (np.cos(angles.frames) ** 2).sum(axis=2)
            assert np.max(np.abs(unit - 1.0)) <= 1e-9
            assert elapsed < 1.0

    def test_criterion_4_warping_equivalence(self):
        """Dynamic program equals exhaustive path enumeration."""
        with _criterion(4, "warping equivalence"):
            warmup()
            start = time.perf_counter()

            # closed end: every sequence pair up to length 6 over {0,1,2}
            seqs = {
                n: np.array(
                    list(itertools.product((0.0, 1.0, 2.0), repeat=n))
                )
                for n in range(1, 7)
            }
            checked = 0
            for n in range(1, 7):
                q3 = np.ascontiguousarray(seqs[n][:, :, None])
                for m in range(1, 7):
                    r3 = np.ascontiguousarray(seqs[m][:, :, None])
                    paths = _paths(n, m)
                    member = np.zeros((len(paths), n * m), dtype=np.float32)
                    for k, p in enumerate(paths):
                        for i, j in p:
                            member[k, i * m + j] = 1.0
                    costs = np.abs(
                        seqs[n][:, None, :, None] - seqs[m][None, :, None, :]
                    ).reshape(-1, n * m).astype(np.float32)
                    oracle = np.empty(costs.shape[0])
                    for s in range(0, costs.shape[0], 65536):
                        block = costs[s : s + 65536] @ member.T
                        oracle[s : s + 65536] = block.min(axis=1)
                    got = np.empty_like(oracle)
                    k = 0
                    for a in range(q3.shape[0]):
                        q = q3[a]
                        for b in range(r3.shape[0]):
                            acc = accumulated_cost(q, r3[b], open_begin=False)
                            got[k] = acc[-1, -1]
                            k += 1
                    assert np.max(np.abs(got - oracle)) <= 1e-9, (n, m)
                    checked += got.size
            assert checked == 1_192_464  # (3 + 9 + ... + 729) squared

            # the public entry point reports the same distances
            rng = np.random.default_rng(904)
            for _ in range(300):
                q = rng.integers(0, 3, rng.integers(1, 7)).astype(float)
                r = rng.integers(0, 3, rng.integers(1, 7)).astype(float)
                assert abs(dtw(q, r).distance - brute_distance(q, r)) <= 1e-9

            # open end against a restart oracle: one closed-end
            # enumeration per reference prefix, shortest prefix on ties
            for _ in range(500):
                q = rng.uniform(0.0, 1.0, int(rng.integers(4, 9)))
                r = rng.uniform(0.0, 1.0, int(rng.integers(4, 9)))
                res = dtw(q, r, open_end=True)
                cost = np.abs(q[:, None] - r[None, :])
                prefix = [
                    brute_closed(cost[:, : j + 1]) for j in range(r.size)
                ]
                best_j = int(np.argmin(prefix))
                assert abs(res.distance - prefix[best_j]) <= 1e-9
                assert res.matched_end == best_j
            assert time.perf_counter() - start < 30.0

    def test_criterion_5_pipeline_skill(self):
        """Held-out median error beats the hold-pose baseline at 1 s."""
        with _criterion(5, "pipeline skill on synthetic motion"):
            start = time.perf_counter()
            synth = SynthConfig(
                cycle_count=8, base_period_frames=480, frame_rate=60.0,
                period_jitter_fraction=0.10, noise_std_cm=0.5, seed=5,
            )
            seq, ranges = generate_motion(synth)
            cut = ranges[5][0]  # first five cycles train, last three test
            skeleton = default_skeleton()
            train = MotionSequence(
                frames=seq.frames[:cut], frame_rate=60.0,
                space=SPACE_CARTESIAN, joint_names=seq.joint_names,
            )
            held = seq.frames[cut:]

            fixed = fix_segment_lengths(train, skeleton)
            angles, _ = to_joint_angles(train, fixed)
            spine = fixed.non_root_joints.index("spine")
            signal = smooth_signal(angles.frames[:, spine, 2], 0.05)
            detected = detect_cycles(signal, 1)
            assert len(detected) == 5
            ref = build_reference(
                [_slice_angles(angles, s, e) for s, e in detected]
            )

            config = PipelineConfig(
                past_seconds=4.0, future_seconds=1.0, frame_rate=60.0,
                model_stride_frames=2, update_stride_frames=60,
                regression=RegressionConfig(
                    rank=13, penalty=50.0, max_sweeps=500,
                    tolerance=1e-8, seed=0,
                ),
            )
            collection = build_collection(ref, config)
            batches = list(run_online(iter(held), ref, collection, fixed))
            truth = MotionSequence(
                frames=held, frame_rate=60.0, space=SPACE_CARTESIAN,
                joint_names=seq.joint_names,
            )
            series = evaluate_predictions(batches, truth, 60)
            baseline = hold_pose_predictions(
                truth, [b.last_observed_frame for b in batches], 60
            )
            model_median = series.summary()["median"]
            base_median = baseline.summary()["median"]
            assert model_median < base_median, (model_median, base_median)
            assert time.perf_counter() - start < 600.0

    def test_criterion_6_latency_budget(self):
        """Select + contract + back-transform stays under 100 ms."""
        with _criterion(6, "per-update latency budget"):
            skeleton = default_skeleton()
            n_seg = len(skeleton.non_root_joints)
            n_ref, past = 4760, 240
            rng = np.random.default_rng(906)
            t = np.arange(n_ref) / n_ref * 2 * np.pi
            base = np.pi / 2 + rng.uniform(0.2, 0.6, (n_seg, 3)) * np.sin(
                t[:, None, None] + rng.uniform(0, 2 * np.pi, (n_seg, 3))
            )
            ref = ReferenceCycle(
                angles=MotionSequence(
                    frames=base, frame_rate=60.0, space=SPACE_JOINT_ANGLE,
                    joint_names=skeleton.non_root_joints,
                    root_track=np.zeros((n_ref, 3)),
                ),
                per_timestep_std=np.zeros_like(base),
                source_cycle_count=1,
            )
            config = PipelineConfig(
                past_seconds=4.0, future_seconds=1.0, frame_rate=60.0,
                model_stride_frames=2, update_stride_frames=60,
                regression=RegressionConfig(
                    rank=13, penalty=50.0, max_sweeps=200,
                    tolerance=1e-8, seed=0,
                ),
            )
            ext = extend_reference(ref, past)
            assert ext.n_frames == 5000

            # one real fit replicated along the anchors: the per-update
            # cost depends on the bank size, not on who trained it
            result = fit(
                ext.frames[:past],
                ext.frames[config.future_frames : past + config.future_frames],
                config.regression,
            )
            collection = CoefficientCollection(
                config=config,
                entries=tuple(
                    CollectionEntry(time_index=a, factors=result.factors)
                    for a in range(
                        past - 1,
                        ext.n_frames - config.future_frames,
                        config.model_stride_frames,
                    )
                ),
            )

            warmup()
            times = []
            for _ in range(102):
                s = int(rng.integers(0, n_ref - past))
                frames = np.clip(
                    ext.frames[s : s + past]
                    + rng.normal(0.0, 0.01, (past, n_seg, 3)),
                    0.0, np.pi,
                )
                window = MotionSequence(
                    frames=frames, frame_rate=60.0, space=SPACE_JOINT_ANGLE,
                    joint_names=skeleton.non_root_joints,
                    root_track=np.zeros((past, 3)),
                )
                tick = time.perf_counter()
                idx, factors = select_coefficient(window, ext, collection)
                predict_window(
                    window, factors, skeleton, config, model_index=idx
                )
                times.append(time.perf_counter() - tick)
            p95 = float(np.quantile(np.array(times[2:]), 0.95))
            assert p95 < 0.1, p95

    def test_criterion_7_variation_oracle(self):
        """Bands equal a per-cell propagation and scale linearly."""
        with _criterion(7, "predictive variation oracle"):
            rng = np.random.default_rng(907)
            n_ref, names = 30, ("a", "b", "c")
            grid = np.arange(n_ref)[:, None, None]
            base = np.pi / 2 + 0.5 * np.sin(
                grid / n_ref * 2 * np.pi + rng.uniform(0, 2 * np.pi, (3, 3))
            )
            std_map = rng.uniform(0.01, 0.05, base.shape)
            ref = ReferenceCycle(
                angles=MotionSequence(
                    frames=base, frame_rate=10.0, space=SPACE_JOINT_ANGLE,
                    joint_names=names, root_track=np.zeros((n_ref, 3)),
                ),
                per_timestep_std=std_map,
                source_cycle_count=4,
            )
            config = PipelineConfig(
                past_seconds=1.0, future_seconds=0.4, frame_rate=10.0,
                model_stride_frames=5, update_stride_frames=2,
                regression=RegressionConfig(
                    rank=2, penalty=1.0, max_sweeps=60,
                    tolerance=1e-10, seed=1,
                ),
            )
            collection = build_collection(ref, config)
            past, future = config.past_frames, config.future_frames

            bands = predictive_variation(ref, collection)
            for entry, band in zip(collection.entries, bands):
                u1, u2 = entry.factors.input_factors
                v1, v2 = entry.factors.output_factors
                var = np.zeros((future,) + base.shape[1:])
                # push a unit change of each reference cell through the
                # model; a cell reappears in the head of the extended cycle
                for cell in np.ndindex(*base.shape):
                    unit = np.zeros(base.shape)
                    unit[cell] = 1.0
                    extended = np.concatenate(
                        [unit[n_ref - past :], unit], axis=0
                    )
                    window = extended[
                        entry.time_index - past + 1 : entry.time_index + 1
                    ]
                    full = np.einsum(
                        "tab,ar,br,cr,dr->tcd", window, u1, u2, v1, v2
                    )
                    var += (full[-future:] * std_map[cell]) ** 2
                np.testing.assert_allclose(
                    band.angle_std, np.sqrt(var), rtol=1e-12, atol=1e-12
                )

            doubled = ReferenceCycle(
                angles=ref.angles, per_timestep_std=2.0 * std_map,
                source_cycle_count=4,
            )
            big = predictive_variation(doubled, collection)
            for small, wide in zip(bands, big):
                np.testing.assert_allclose(
                    wide.angle_std, 2.0 * small.angle_std, rtol=1e-12
                )

    def test_criterion_8_backtransform_floor(self):
        """Rigid data reconstructs; jitter is bounded by chain sums."""
        with _criterion(8, "back-transform floor"):
            rng = np.random.default_rng(908)
            skeleton = default_skeleton()
            n_frames = 400
            col = {j: i for i, j in enumerate(skeleton.joints)}

            def build(length_factors):
                coords = np.empty((n_frames, len(skeleton.joints), 3))
                coords[:, col[skeleton.root]] = rng.uniform(
                    -1.0, 1.0, (n_frames, 3)
                )
                seg = {j: i for i, j in enumerate(skeleton.non_root_joints)}
                for joint in skeleton.topological_joints:
                    if joint == skeleton.root:
                        continue
                    unit = rng.standard_normal((n_frames, 3))
                    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
                    length = (
                        skeleton.segment_lengths[joint]
                        * length_factors[:, seg[joint]]
                    )
                    coords[:, col[joint]] = (
                        coords[:, col[skeleton.parents[joint]]]
                        + length[:, None] * unit
                    )
                return MotionSequence(
                    frames=coords, frame_rate=60.0, space=SPACE_CARTESIAN,
                    joint_names=skeleton.joints,
                )

            n_seg = len(skeleton.non_root_joints)
            rigid = build(np.ones((n_frames, n_seg)))
            assert backtransform_error(rigid, skeleton).values.max() <= 1e-6

            jittered = build(rng.uniform(0.95, 1.05, (n_frames, n_seg)))
            series = backtransform_error(jittered, skeleton)
            assert series.values.min() > 0.0
            fixed = fix_segment_lengths(jittered, skeleton)
            deviation = np.abs(
                segment_distances(jittered, skeleton)
                - fixed.length_vector()[None, :]
            )
            seg_index = {
                j: i for i, j in enumerate(skeleton.non_root_joints)
            }
            bound = np.zeros(n_frames)
            for joint in skeleton.non_root_joints:
                walk = joint
                while walk != skeleton.root:
                    bound += deviation[:, seg_index[walk]]
                    walk = skeleton.parents[walk]
            assert np.all(series.values <= bound * METERS_TO_CM + 1e-9)

    def test_criterion_9_persistence_fidelity(self, tmp_path):
        """Save/load then predict reproduces every batch bit for bit."""
        with _criterion(9, "persistence fidelity"):
            rng = np.random.default_rng(909)
            skeleton = default_skeleton()
            n_seg = len(skeleton.non_root_joints)
            n_ref = 60
            t = np.arange(n_ref)[:, None, None]
            base = np.pi / 2 + 0.4 * np.sin(
                t / n_ref * 2 * np.pi
                + rng.uniform(0, 2 * np.pi, (n_seg, 3))
            )
            ref = ReferenceCycle(
                angles=MotionSequence(
                    frames=base, frame_rate=30.0, space=SPACE_JOINT_ANGLE,
                    joint_names=skeleton.non_root_joints,
                    root_track=np.zeros((n_ref, 3)),
                ),
                per_timestep_std=np.zeros_like(base),
                source_cycle_count=1,
            )
            config = PipelineConfig(
                past_seconds=0.5, future_seconds=0.2, frame_rate=30.0,
                model_stride_frames=5, update_stride_frames=4,
                regression=RegressionConfig(
                    rank=3, penalty=0.5, max_sweeps=60,
                    tolerance=1e-9, seed=2,
                ),
            )
            collection = build_collection(ref, config)

            laps = np.concatenate([base, base, base[: n_ref // 2]], axis=0)
            laps = np.clip(
                laps + rng.normal(0.0, 0.01, laps.shape), 0.0, np.pi
            )
            stream = angles_to_coordinates(
                laps, np.zeros((laps.shape[0], 3)), skeleton
            )

            before = list(run_online(iter(stream), ref, collection, skeleton))
            path = str(tmp_path / "collection.npz")
            save_collection(collection, path)
            reloaded = load_collection(path)
            after = list(run_online(iter(stream), ref, reloaded, skeleton))

            assert len(before) == len(after) > 0
            for a, b in zip(before, after):
                assert a.last_observed_frame == b.last_observed_frame
                assert a.model_index == b.model_index
                for fa, fb in zip(a.frames, b.frames):
                    assert fa.angles.tobytes() == fb.angles.tobytes()
                    assert fa.coordinates.tobytes() == fb.coordinates.tobytes()
                    assert fa.clamped_entries == fb.clamped_entries
