"""The benchmark's workloads and their measurement.

Every workload runs the stages a user runs: set-up (segment lengths,
angle transform, cycle detection, reference), the model bank, the online
loop over held-out cycles, Monte-Carlo bands and one posterior interval.
Each workload sizes these stages so that one layer does most of the
work:

- ``stream``: a 4.7k-frame reference, so the warping in every online
  update dominates; a sparse, cheaply trained bank.
- ``build``: paper-scale cycles and the paper's solver settings, so the
  ALS fits of the bank build dominate.
- ``uncertainty``: a full-stride bank and 1000 Monte-Carlo draws per
  model, plus a 1000-draw posterior, so the sampling dominates.

The machine's speed drifts in episodes of 5-20 s, so a short operation
timed once reads whatever episode it fell into. The stages therefore run
interleaved, in whole rounds, until ``--seconds`` have passed and at
least two banks were built, and every metric is the median over all its
operations in the run. A round is: the
timed bank build (``build`` only), updates, bands, updates, posterior,
updates. Set-up runs once before the first round, once more after its
bands and its posterior, and once at the start of every later round.
All outputs are checked outside the timed regions.
"""

from __future__ import annotations

import os
import resource
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
import spans
from tensormotion import alignment, cycles, kinematics, predictor, uncertainty
from tensormotion.regression import RegressionConfig

FRAME_RATE = 60.0
PAST_SECONDS, FUTURE_SECONDS = 4.0, 1.0
UPDATE_STRIDE = 60
# a run on ``build`` whose first round is slow still times two builds
MIN_BUILDS = 2
# each replay of the held-out cycles starts this many frames later than
# the one before, so the updates meet the anchors at every offset
REPLAY_SHIFT = 10
# cycles held out for the online replays; six make a `stream` replay last
# long enough to average over the machine's speed episodes
HELD_CYCLES = 6
# the paper's hyperparameters, and a cheap variant for banks built in set-up
PAPER = RegressionConfig(rank=13, penalty=50.0, max_sweeps=500, tolerance=1e-8, seed=0)
CHEAP = RegressionConfig(rank=13, penalty=50.0, max_sweeps=3, tolerance=1e-8, seed=0)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's inputs and stages.

    ``bank_in_setup`` builds the bank as part of set-up instead of
    timing it as a round's first operation. A round times three blocks
    of ``update_block`` online updates.
    """

    period_frames: int
    train_cycles: int
    model_stride: int
    bank: RegressionConfig
    bank_in_setup: bool
    band_samples: int
    posterior: RegressionConfig
    posterior_samples: int
    update_block: int
    check_skill: bool


WORKLOADS = {
    "stream": Workload(
        period_frames=4760, train_cycles=3, model_stride=120,
        bank=CHEAP, bank_in_setup=True, band_samples=8,
        posterior=CHEAP, posterior_samples=50, update_block=8,
        check_skill=False,
    ),
    "build": Workload(
        period_frames=480, train_cycles=5, model_stride=60,
        bank=PAPER, bank_in_setup=False, band_samples=1000,
        posterior=PAPER, posterior_samples=50, update_block=60,
        check_skill=True,
    ),
    "uncertainty": Workload(
        period_frames=480, train_cycles=5, model_stride=2,
        bank=CHEAP, bank_in_setup=True, band_samples=1000,
        posterior=PAPER, posterior_samples=1000, update_block=90,
        check_skill=False,
    ),
}


@dataclass
class Prepared:
    """What set-up hands to the rounds."""

    skeleton: kinematics.Skeleton
    angles: kinematics.MotionSequence
    reference: cycles.ReferenceCycle
    collection: predictor.CoefficientCollection | None


def _slice(seq: kinematics.MotionSequence, start: int, end: int) -> kinematics.MotionSequence:
    return kinematics.MotionSequence(
        frames=seq.frames[start:end], frame_rate=seq.frame_rate, space=seq.space,
        joint_names=seq.joint_names, root_track=seq.root_track[start:end],
    )


class Run:
    """One workload run: set-up, timed rounds, checks, metrics."""

    def __init__(self, wl: Workload, seed: int, seconds: float, tracer):
        self.wl = wl
        self.seconds, self.tracer = seconds, tracer
        self.failures: list[str] = []
        self.attempted = 0
        self.times = {key: [] for key in ("setup_s", "build_s", "update_ms", "bands_s", "posterior_s")}
        self.see_cm: list[float] = []

        capture = inputs.generate(seed, wl.train_cycles + HELD_CYCLES, wl.period_frames)
        cut = capture.ranges[wl.train_cycles][0]
        self.phase = capture.phase[cut:]
        self.held = capture.frames[cut:]
        joints, parents, lengths = inputs.skeleton_spec()
        self.base = kinematics.Skeleton(joints, parents, lengths)
        self.train = kinematics.MotionSequence(
            frames=capture.frames[:cut], frame_rate=FRAME_RATE,
            space=kinematics.SPACE_CARTESIAN, joint_names=joints,
        )
        self.config = predictor.PipelineConfig(
            past_seconds=PAST_SECONDS, future_seconds=FUTURE_SECONDS, frame_rate=FRAME_RATE,
            model_stride_frames=wl.model_stride, update_stride_frames=UPDATE_STRIDE,
            regression=wl.bank,
        )
        self.online = None
        self.replays = 0
        self.rounds = 0

    # -- measurement ---------------------------------------------------

    def measure(self) -> None:
        """Set up, then run whole rounds until ``seconds`` have passed,
        at least one replay of the held-out cycles has ended and
        ``build_s`` rests on at least ``MIN_BUILDS`` builds."""
        self.prep = self._setup()
        self.ext = cycles.extend_reference(self.prep.reference, self.config.past_frames)
        self.collection = self.prep.collection
        began = time.perf_counter()
        while True:
            self._round()
            if (
                self.replays
                and len(self.times["build_s"]) >= MIN_BUILDS
                and time.perf_counter() - began >= self.seconds
            ):
                break

    def _setup(self) -> Prepared:
        """The program's own set-up, timed; the bank too if built there."""
        tracer = self.tracer
        start = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span("kinematics.prep"):
                skeleton = kinematics.fix_segment_lengths(self.train, self.base)
                angles, _ = kinematics.to_joint_angles(self.train, skeleton)
            with tracer.span("cycles.prep"):
                spine = skeleton.non_root_joints.index("spine")
                signal = cycles.smooth_signal(angles.frames[:, spine, 2], 0.05)
                found = cycles.detect_cycles(signal, 1)
                reference = cycles.build_reference(
                    [_slice(angles, s, e) for s, e in found], target_frames=self.wl.period_frames
                )
            prep = Prepared(skeleton, angles, reference, None)
            if self.wl.bank_in_setup:
                prep.collection = self._build(reference)
            alignment.warmup()
        self.times["setup_s"].append(time.perf_counter() - start)
        return prep

    def _build(self, reference):
        start = time.perf_counter()
        with self.tracer.span("predictor.build_collection"):
            collection = predictor.build_collection(reference, self.config)
        self.times["build_s"].append(time.perf_counter() - start)
        return collection

    def _round(self) -> None:
        wl = self.wl
        first = self.rounds == 0
        self.rounds += 1
        if not first:
            self._setup()
        if not wl.bank_in_setup:
            self.collection = self._build(self.prep.reference)
            self.attempted += 1
        self._updates(wl.update_block)

        start = time.perf_counter()
        with self.tracer.span("uncertainty.predictive_variation", track_alloc=True):
            bands = uncertainty.predictive_variation(
                self.prep.reference, self.collection, n_samples=wl.band_samples
            )
        self.times["bands_s"].append(time.perf_counter() - start)
        self.attempted += 1
        self.bands = bands
        self.failures += self.check_bands(bands, self.collection)
        if first:
            self._setup()
        self._updates(wl.update_block)

        past, future = self.config.past_frames, self.config.future_frames
        x = self.prep.angles.frames[:past]
        y = self.prep.angles.frames[future : future + past]
        start = time.perf_counter()
        with self.tracer.span("uncertainty.posterior_predictive"):
            post = uncertainty.posterior_predictive(
                x, y, wl.posterior, x, n_samples=wl.posterior_samples
            )
        self.times["posterior_s"].append(time.perf_counter() - start)
        self.attempted += 1
        self.posterior = post
        self.failures += self.check_posterior(post)
        if first:
            self._setup()
        self._updates(wl.update_block)

    def _updates(self, count: int) -> None:
        """Time ``count`` updates of the online loop. A replay of the
        held-out cycles that ends is checked and the next one begun,
        ``REPLAY_SHIFT`` frames later than the one before."""
        for _ in range(count):
            if self.online is None:
                self.offset = self.replays * REPLAY_SHIFT % UPDATE_STRIDE
                frames = self.held[self.offset :]
                self.online = predictor.run_online(
                    iter(list(frames)), self.prep.reference, self.collection, self.prep.skeleton
                )
                self.online_collection, self.pending = self.collection, []
                self.replay_updates = (len(frames) - self.config.past_frames) // UPDATE_STRIDE + 1
            start = time.perf_counter()
            with self.tracer.span("predictor.update"):
                batch = next(self.online)
            self.times["update_ms"].append(1e3 * (time.perf_counter() - start))
            self.attempted += 1
            self.pending.append(batch)
            if len(self.pending) == self.replay_updates:
                self.online.close()
                self.online = None
                with self.tracer.no_spans():
                    self.failures += self.check_stream(
                        self.pending, self.online_collection, self.offset, offline=self.replays == 0
                    )
                self.see_cm += list(self._see(self.pending, self.offset)[0])
                if self.replays == 0:
                    self.batches = self.pending
                self.replays += 1

    # -- checks ----------------------------------------------------------

    def check_stream(self, batches, collection, offset: int = 0, offline: bool = False) -> list[str]:
        """Anchor phases and skill of one replay that began ``offset``
        frames into the held-out cycles; with ``offline`` also the
        offline replay of a fixed subset of its batches."""
        cfg, ref = self.config, self.prep.reference
        anchors = collection.time_indices - cfg.past_frames
        chosen = np.array([b.model_index for b in batches])
        true_phase = self.phase[offset:][[b.last_observed_frame for b in batches]]
        failures = checks.check_anchor_phase(
            chosen, true_phase, anchors, ref.length_frames, checks.PHASE_SLACK * ref.length_frames
        )
        if self.wl.check_skill:
            model, hold = self._see(batches, offset)
            failures += checks.check_see_beats_hold(float(np.median(model)), float(np.median(hold)))
        if offline:
            subset = [batches[0], batches[len(batches) // 2], batches[-1]]
            failures += checks.check_batches_equal(
                subset, [self._offline(b, collection, offset) for b in subset]
            )
        return failures

    def _see(self, batches, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """Error of the frame predicted exactly 1 s ahead, and of holding
        the last observed pose instead, for every batch whose target
        frame the held-out cycles still contain."""
        future = self.config.future_frames
        held = self.held[offset:]
        scored = [b for b in batches if b.last_observed_frame + future < len(held)]
        at = np.array([b.last_observed_frame for b in scored])
        predicted = np.stack([b.frames[future - 1].coordinates for b in scored])
        truth = held[at + future]
        return checks.see_cm(predicted, truth), checks.see_cm(held[at], truth)

    def _offline(self, batch, collection, offset: int):
        """Replay one batch offline, as the ``run_online`` docstring states."""
        cfg, skeleton = self.config, self.prep.skeleton
        end = offset + batch.last_observed_frame + 1
        cart = kinematics.MotionSequence(
            frames=self.held[end - cfg.past_frames : end], frame_rate=FRAME_RATE,
            space=kinematics.SPACE_CARTESIAN, joint_names=skeleton.joints,
        )
        window, _ = kinematics.to_joint_angles(cart, skeleton)
        idx, factors = predictor.select_coefficient(window, self.ext, collection)
        frames = predictor.predict_window(window, factors, skeleton, cfg, model_index=idx)
        return predictor.PredictionBatch(
            last_observed_frame=batch.last_observed_frame, model_index=idx, frames=tuple(frames)
        )

    def check_bands(self, bands, collection) -> list[str]:
        """Monte-Carlo bands against their closed form."""
        past, future = self.config.past_frames, self.config.future_frames
        std = self.prep.reference.per_timestep_std
        ext_std = np.concatenate([std[std.shape[0] - past :], std])
        closed = [
            checks.closed_form_band(
                e.factors.input_factors, e.factors.output_factors,
                ext_std[e.time_index - past + 1 : e.time_index + 1], future,
            )
            for e in collection.entries
        ]
        return checks.check_bands([b.angle_std for b in bands], closed, self.wl.band_samples)

    def check_posterior(self, post) -> list[str]:
        """Coverage of the fitted window's true shifted frames."""
        past, future = self.config.past_frames, self.config.future_frames
        truth = self.prep.angles.frames[future : future + past]
        return checks.check_coverage(post.lower, post.upper, truth)

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> dict:
        t = self.times
        return {
            "setup_s": (float(np.median(t["setup_s"])), "s"),
            "update_p50_ms": (float(np.median(t["update_ms"])), "ms"),
            "build_s": (float(np.median(t["build_s"])), "s"),
            "see_1s_median_cm": (float(np.median(self.see_cm)), "cm"),
            "bands_s": (float(np.median(t["bands_s"])), "s"),
            "posterior_s": (float(np.median(t["posterior_s"])), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def locate_peak_alloc_mb(self) -> float:
        """tracemalloc peak of one ``locate_in_reference`` call."""
        cart = kinematics.MotionSequence(
            frames=self.held[: self.config.past_frames], frame_rate=FRAME_RATE,
            space=kinematics.SPACE_CARTESIAN, joint_names=self.prep.skeleton.joints,
        )
        window, _ = kinematics.to_joint_angles(cart, self.prep.skeleton)
        with self.tracer.no_spans():
            tracemalloc.start()
            alignment.locate_in_reference(window, self.ext)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak / spans.MB

    def per_layer(self) -> tuple[dict, list[str]]:
        n_ext = self.ext.n_frames
        channels = self.ext.frames.shape[1] * 3
        context = {
            "models": len(self.collection),
            "draw_mb": self.wl.band_samples * n_ext * channels * 8 / spans.MB,
            "locate_peak_alloc_mb": self.locate_peak_alloc_mb(),
        }
        return spans.layer_metrics(self.tracer.spans, context)


def environment() -> dict:
    """What the numbers depend on: interpreter, libraries, threads."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    task_dir = Path("/proc/self/task")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "cpus": os.cpu_count(),
        "dtw_backend": alignment.active_backend(),
    }
