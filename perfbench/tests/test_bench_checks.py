"""Each correctness check of the benchmark passes on the program's
current output and fails on a deliberately wrong one.

Runs two rounds of a small workload (480-frame cycles, a sparse bank
fitted with 30 sweeps) with every check, then feeds the same check
methods tampered outputs.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import spans  # noqa: E402
from tensormotion.regression import RegressionConfig  # noqa: E402

SMALL = bench.Workload(
    period_frames=480, train_cycles=3, model_stride=60,
    bank=RegressionConfig(rank=13, penalty=50.0, max_sweeps=30, tolerance=1e-8, seed=0),
    bank_in_setup=False, band_samples=1000, posterior=bench.CHEAP, posterior_samples=50,
    update_block=16, check_skill=True,
)


@pytest.fixture(scope="module")
def run():
    run = bench.Run(SMALL, seed=3, seconds=0.0, tracer=spans.NullTracer())
    run.measure()
    return run


def test_current_output_passes_every_check(run):
    assert run.failures == []
    # two rounds, the least that times two bank builds
    assert len(run.times["build_s"]) == bench.MIN_BUILDS == 2
    assert run.attempted == 2 * (1 + 3 * SMALL.update_block + 2)
    assert run.replays >= 1


def test_anchor_check_rejects_anchors_shifted_by_half_a_cycle(run):
    n = len(run.collection)
    shifted = [dataclasses.replace(b, model_index=(b.model_index + n // 2) % n) for b in run.batches]
    failures = run.check_stream(shifted, run.collection, offline=False)
    assert any(f.startswith("anchor phase") for f in failures)


def test_anchor_check_rejects_anchors_shifted_by_the_horizon(run):
    # models anchored at the end of y instead of the end of x
    step = run.config.future_frames // SMALL.model_stride
    n = len(run.collection)
    shifted = [dataclasses.replace(b, model_index=(b.model_index + step) % n) for b in run.batches]
    failures = run.check_stream(shifted, run.collection, offline=False)
    assert any(f.startswith("anchor phase") for f in failures)


def test_nearest_anchor_table_follows_the_selection_rule():
    # anchors at -1, 59, 119 of a 200-frame cycle: nothing lies before
    # the first anchor, and the rule does not wrap from the end to -1
    table = bench.checks.nearest_anchor_table(np.array([-1, 59, 119]), 200)
    assert table[0] == 0 and table[29] == 0 and table[30] == 1
    assert table[89] == 1 and table[90] == 2 and table[199] == 2
    # a first anchor at 10 moves positions 0-9 one cycle forward
    table = bench.checks.nearest_anchor_table(np.array([10, 60, 110]), 150)
    assert list(table[:10]) == [2] * 10 and table[10] == 0


def test_replay_check_rejects_a_changed_batch(run):
    first = run.batches[0]
    frames = list(first.frames)
    frames[0] = dataclasses.replace(frames[0], coordinates=frames[0].coordinates + 1e-12)
    tampered = [dataclasses.replace(first, frames=tuple(frames))] + run.batches[1:]
    failures = run.check_stream(tampered, run.collection, offline=True)
    assert any(f.startswith("replay") for f in failures)


def test_skill_check_rejects_the_last_observed_pose(run):
    future = run.config.future_frames
    held = []
    for b in run.batches:
        frames = list(b.frames)
        frames[future - 1] = dataclasses.replace(
            frames[future - 1], coordinates=run.held[b.last_observed_frame]
        )
        held.append(dataclasses.replace(b, frames=tuple(frames)))
    failures = run.check_stream(held, run.collection, offline=True)
    assert any(f.startswith("skill") for f in failures)


def test_band_check_rejects_scaled_bands(run):
    scaled = [dataclasses.replace(b, angle_std=1.2 * b.angle_std) for b in run.bands]
    failures = run.check_bands(scaled, run.collection)
    assert any(f.startswith("bands") for f in failures)


def test_band_check_rejects_bands_of_other_models(run):
    rolled = run.bands[1:] + run.bands[:1]
    assert run.check_bands(rolled, run.collection)


def test_coverage_check_rejects_a_halved_interval(run):
    post = run.posterior
    mid = (post.lower + post.upper) / 2
    half = (post.upper - post.lower) / 4
    narrow = dataclasses.replace(post, lower=mid - half, upper=mid + half)
    failures = run.check_posterior(narrow)
    assert any(f.startswith("posterior") for f in failures)


def test_closed_form_band_matches_a_direct_sum():
    rng = np.random.default_rng(0)
    ins = (rng.standard_normal((3, 2)), rng.standard_normal((2, 2)))
    outs = (rng.standard_normal((3, 2)), rng.standard_normal((2, 2)))
    std = rng.uniform(0.1, 1.0, (5, 3, 2))
    band = bench.checks.closed_form_band(ins, outs, std, future=2)
    coeff = np.zeros((3, 2, 3, 2))
    for r in range(2):
        coeff += np.multiply.outer(
            np.multiply.outer(ins[0][:, r], ins[1][:, r]),
            np.multiply.outer(outs[0][:, r], outs[1][:, r]),
        )
    for t in range(2):
        var = np.zeros((3, 2))
        for a in range(3):
            for b in range(2):
                var += (std[3 + t, a, b] * coeff[a, b]) ** 2
        np.testing.assert_allclose(band[t], np.sqrt(var), rtol=1e-12)
