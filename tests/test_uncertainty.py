"""Uncertainty quantification tests.

The variation bands are checked against an independent per-cell
propagation that pushes a unit perturbation of every reference cell
through each model, so vectorization and row-mapping errors cannot
cancel. Linearity of the models makes two more properties exact:
doubling the injected spread doubles every band, and a per-sample
Monte-Carlo loop converges at the square-root rate toward the bands.
"""

import dataclasses

import numpy as np
import pytest

import tensormotion.regression
import tensormotion.uncertainty
from tensormotion.cycles import ReferenceCycle, build_reference
from tensormotion.kinematics import (
    SPACE_JOINT_ANGLE,
    MotionSequence,
    Skeleton,
    angles_to_coordinates,
)
from tensormotion.predictor import PipelineConfig, build_collection
from tensormotion.regression import RegressionConfig
from tensormotion.tensor_ops import cp_reconstruct
from tensormotion.uncertainty import (
    BAND_LEVELS,
    UncertaintyBand,
    band_to_coordinates,
    posterior_predictive,
    predictive_variation,
)

T_REF = 30
FPS = 30.0


def _skeleton() -> Skeleton:
    return Skeleton(
        joints=("root", "mid", "tip"),
        parents={"mid": "root", "tip": "mid"},
        segment_lengths={"mid": 1.0, "tip": 0.5},
    )


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(90)
    t = np.linspace(0.0, 2 * np.pi, T_REF, endpoint=False)
    frames = np.clip(
        1.3
        + 0.6
        * np.stack(
            [
                np.stack([np.sin(t + a + 0.4 * k) for a in (0, 1, 2)], axis=1)
                for k in range(2)
            ],
            axis=1,
        ),
        0.1,
        np.pi - 0.1,
    )
    seq = MotionSequence(
        frames=frames,
        frame_rate=FPS,
        space=SPACE_JOINT_ANGLE,
        joint_names=("mid", "tip"),
        root_track=np.zeros((T_REF, 3)),
    )
    base = build_reference([seq])
    std = rng.uniform(0.02, 0.08, frames.shape)
    ref = ReferenceCycle(
        angles=base.angles, per_timestep_std=std, source_cycle_count=3
    )
    cfg = PipelineConfig(
        past_seconds=1.0 / 3.0,
        future_seconds=0.2,
        frame_rate=FPS,
        model_stride_frames=12,
        update_stride_frames=6,
        regression=RegressionConfig(rank=2, penalty=0.5, max_sweeps=30, seed=0),
    )
    coll = build_collection(ref, cfg)
    return ref, cfg, coll


def _loop_bands(ref, coll, n_samples, seed):
    """Monte-Carlo bands from a per-sample loop over perturbed cycles."""
    cfg = coll.config
    past, future = cfg.past_frames, cfg.future_frames
    base = ref.angles.frames
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_samples,) + base.shape)
    out = []
    for entry in coll.entries:
        coeff = cp_reconstruct(entry.factors)
        end = entry.time_index
        tails = []
        for s in range(n_samples):
            sample = base + noise[s] * ref.per_timestep_std
            ext = np.concatenate([sample[T_REF - past :], sample])
            window = ext[end - past + 1 : end + 1]
            tails.append(
                np.einsum("tpq,pqjk->tjk", window, coeff)[-future:]
            )
        stack = np.stack(tails)
        mean = stack.sum(axis=0) / n_samples
        var = ((stack - mean) ** 2).sum(axis=0) / (n_samples - 1)
        out.append(np.sqrt(var))
    return out


def _propagated_sd(ref, coll):
    """Exact spread by pushing a unit perturbation through each cell."""
    cfg = coll.config
    past, future = cfg.past_frames, cfg.future_frames
    shape = ref.angles.frames.shape
    out = []
    for entry in coll.entries:
        coeff = cp_reconstruct(entry.factors)
        end = entry.time_index
        var = np.zeros((future,) + shape[1:])
        for cell in np.ndindex(*shape):
            delta = np.zeros((past,) + shape[1:])
            # a reference cell appears once in the cycle body and again
            # in the duplicated head when the window straddles the seam
            for pos in (cell[0] + past, cell[0] + past - T_REF):
                row = pos - (end - past + 1)
                if 0 <= row < past:
                    delta[row][cell[1:]] += 1.0
            tail = np.tensordot(delta, coeff, axes=2)[-future:]
            var += (tail * ref.per_timestep_std[cell]) ** 2
        out.append(np.sqrt(var))
    return out


class TestPredictiveVariation:
    """Reference-variability bands."""

    def test_matches_propagated_oracle(self, setup):
        ref, cfg, coll = setup
        bands = predictive_variation(ref, coll)
        oracle = _propagated_sd(ref, coll)
        assert len(bands) == len(coll)
        for band, expected in zip(bands, oracle):
            np.testing.assert_allclose(
                band.angle_std, expected, rtol=1e-12, atol=1e-12
            )

    def test_tail_straddling_cycle_seam(self, setup):
        """Tail rows on both sides of the duplicated head map correctly."""
        ref, cfg, coll = setup
        past, future = cfg.past_frames, cfg.future_frames
        end = past + future // 2
        assert end - future + 1 < past <= end
        seam = dataclasses.replace(
            coll,
            entries=(
                dataclasses.replace(coll.entries[1], time_index=end),
            ),
        )
        (band,) = predictive_variation(ref, seam)
        (expected,) = _propagated_sd(ref, seam)
        np.testing.assert_allclose(
            band.angle_std, expected, rtol=1e-12, atol=1e-12
        )

    def test_doubled_spread_doubles_bands_exactly(self, setup):
        ref, cfg, coll = setup
        doubled = ReferenceCycle(
            angles=ref.angles,
            per_timestep_std=2.0 * ref.per_timestep_std,
            source_cycle_count=ref.source_cycle_count,
        )
        a = predictive_variation(ref, coll)
        b = predictive_variation(doubled, coll)
        for small, big in zip(a, b):
            np.testing.assert_allclose(
                big.angle_std, 2.0 * small.angle_std, rtol=1e-12
            )

    def test_zero_spread_gives_zero_bands(self, setup):
        ref, cfg, coll = setup
        silent = ReferenceCycle(
            angles=ref.angles,
            per_timestep_std=np.zeros_like(ref.per_timestep_std),
            source_cycle_count=1,
        )
        for band in predictive_variation(silent, coll):
            np.testing.assert_array_equal(band.angle_std, 0.0)

    def test_converges_to_propagated_spread(self, setup):
        """Quadrupling samples twice should shrink the error about 4x."""
        ref, cfg, coll = setup
        bands = predictive_variation(ref, coll)
        errs = {}
        for n in (200, 3200):
            sampled = _loop_bands(ref, coll, n, seed=7)
            errs[n] = max(
                float(np.abs(b.angle_std - s).max())
                for b, s in zip(bands, sampled)
            )
        assert errs[3200] < errs[200]
        assert 1.5 < errs[200] / errs[3200] < 12.0


class TestUncertaintyBand:
    """Band container semantics."""

    def test_levels_scale_linearly(self):
        rng = np.random.default_rng(91)
        band = UncertaintyBand(angle_std=rng.uniform(0, 0.2, (4, 2, 3)))
        np.testing.assert_allclose(band.band(2), 2 * band.band(1))
        np.testing.assert_allclose(band.band(3), 3 * band.band(1))

    def test_sphere_radius_is_axis_maximum(self):
        std = np.zeros((1, 2, 3))
        std[0, 0] = [0.1, 0.3, 0.2]
        std[0, 1] = [0.05, 0.0, 0.4]
        band = UncertaintyBand(angle_std=std)
        np.testing.assert_allclose(band.sphere_radius(2)[0], [0.6, 0.8])

    def test_invalid_level_rejected(self):
        band = UncertaintyBand(angle_std=np.zeros((1, 1, 3)))
        with pytest.raises(ValueError):
            band.band(4)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            UncertaintyBand(angle_std=np.full((1, 1, 3), -0.1))

    def test_coordinate_radius_requires_fill(self):
        band = UncertaintyBand(angle_std=np.zeros((1, 1, 3)))
        with pytest.raises(ValueError, match="coordinate"):
            band.sphere_radius(1, space="coordinate")


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(92)
    x = rng.standard_normal((40, 3))
    coef = rng.standard_normal((3, 2))
    y = x @ coef + 0.1 * rng.standard_normal((40, 2))
    config = RegressionConfig(rank=2, penalty=0.5, max_sweeps=50, seed=6)
    return x, y, config


class TestPosteriorPredictive:
    """Gibbs-based equal-tailed intervals."""

    def test_zero_credibility_degenerates_to_median(self, problem):
        x, y, config = problem
        summary = posterior_predictive(
            x, y, config, x[0], n_samples=40, credibility=0.0
        )
        np.testing.assert_array_equal(summary.lower, summary.upper)

    def test_intervals_nest(self, problem):
        x, y, config = problem
        wide = posterior_predictive(
            x, y, config, x[0], n_samples=60, credibility=0.95
        )
        narrow = posterior_predictive(
            x, y, config, x[0], n_samples=60, credibility=0.5
        )
        assert np.all(wide.lower <= narrow.lower + 1e-12)
        assert np.all(narrow.upper <= wide.upper + 1e-12)
        assert np.all(narrow.lower <= narrow.upper)

    def test_summary_shapes_and_determinism(self, problem):
        x, y, config = problem
        a = posterior_predictive(x, y, config, x[:3], n_samples=25)
        b = posterior_predictive(x, y, config, x[:3], n_samples=25)
        assert a.mean.shape == (3, 2)
        assert a.n_samples == 25
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)

    def test_runs_the_traced_call_chain(self, problem, monkeypatch):
        """Profilers wrap these module attributes: a posterior reaches the
        sampler once, and the sampler reaches the fit once and the
        reconstruction once per kept sample."""
        x, y, config = problem
        calls = []

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(tensormotion.uncertainty, "gibbs_sample")
        count(tensormotion.regression, "fit")
        count(tensormotion.regression, "cp_reconstruct")
        posterior_predictive(x, y, config, x[:3], n_samples=7, burn_in=2, thin=3)
        assert calls == ["gibbs_sample", "fit"] + ["cp_reconstruct"] * 7

    def test_invalid_credibility_rejected(self, problem):
        x, y, config = problem
        with pytest.raises(ValueError):
            posterior_predictive(x, y, config, x[0], credibility=1.0)
        with pytest.raises(ValueError):
            posterior_predictive(x, y, config, x[0], credibility=-0.1)


class TestBandToCoordinates:
    """Angle band propagation through the skeleton."""

    def test_parent_band_inflates_child_coordinates(self):
        std = np.zeros((2, 2, 3))
        std[:, 0] = 0.15  # only the first segment is uncertain
        band = UncertaintyBand(angle_std=std)
        center = np.full((2, 2, 3), np.pi / 3)
        roots = np.zeros((2, 3))
        filled = band_to_coordinates(band, center, _skeleton(), roots)
        for level in BAND_LEVELS:
            coords = filled.coordinate_bands[level]
            assert coords.shape == (2, 3, 3)
            np.testing.assert_array_equal(coords[:, 0], 0.0)  # root fixed
            assert coords[:, 1].max() > 0.0
            assert coords[:, 2].max() > 0.0  # tip moves with its parent

    def test_center_clipped_at_range_edge(self):
        std = np.full((1, 2, 3), 0.2)
        band = UncertaintyBand(angle_std=std)
        center = np.full((1, 2, 3), np.pi)  # upper edge cannot move higher
        filled = band_to_coordinates(
            band, center, _skeleton(), np.zeros((1, 3))
        )
        mid = angles_to_coordinates(
            np.full((1, 2, 3), np.pi), np.zeros((1, 3)), _skeleton()
        )
        lo = angles_to_coordinates(
            np.full((1, 2, 3), np.pi - 0.2), np.zeros((1, 3)), _skeleton()
        )
        np.testing.assert_allclose(
            filled.coordinate_bands[1], np.abs(lo - mid), atol=1e-12
        )

    def test_array_center_requires_roots(self):
        band = UncertaintyBand(angle_std=np.zeros((1, 2, 3)))
        with pytest.raises(TypeError, match="root_positions"):
            band_to_coordinates(band, np.full((1, 2, 3), 1.0), _skeleton())

    def test_shape_mismatch_rejected(self):
        band = UncertaintyBand(angle_std=np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="shape"):
            band_to_coordinates(
                band,
                np.full((3, 2, 3), 1.0),
                _skeleton(),
                root_positions=np.zeros((3, 3)),
            )

    def test_original_band_untouched(self):
        band = UncertaintyBand(angle_std=np.full((1, 2, 3), 0.1))
        band_to_coordinates(
            band,
            np.full((1, 2, 3), 1.0),
            _skeleton(),
            root_positions=np.zeros((1, 3)),
        )
        assert band.coordinate_bands is None
