"""Predictive uncertainty for the motion pipeline.

Two complementary routes. The fast one propagates the reference cycle's
own per-timestep spread exactly through each trained (linear) model and
reads off the per-entry standard deviation of the predicted tail; the
``uncertainty`` command runs it on a built collection, and it draws no
random numbers. The
principled one draws from the Bayesian posterior of a single model via
the Gibbs sampler and summarizes the predictive draws with equal-tailed
intervals.

Angle-space bands translate to coordinate space by back-transforming the
band edges around a center trajectory and taking the largest per-axis
deviation; a per-joint sphere radius is the maximum over axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from tensormotion.cycles import ReferenceCycle
from tensormotion.kinematics import Skeleton, angles_to_coordinates
from tensormotion.predictor import CoefficientCollection
from tensormotion.regression import RegressionConfig, gibbs_sample
from tensormotion.tensor_ops import cp_reconstruct

__all__ = [
    "BAND_LEVELS",
    "PosteriorPredictive",
    "UncertaintyBand",
    "band_to_coordinates",
    "posterior_predictive",
    "predictive_variation",
]

BAND_LEVELS = (1, 2, 3)


@dataclass(frozen=True)
class UncertaintyBand:
    """Per-entry standard deviation of a predicted trajectory.

    ``angle_std`` has the predicted tail's shape ``(T, J, 3)``.
    ``coordinate_bands`` maps a level to the coordinate-space deviation
    of the same shape (root row included) once
    :func:`band_to_coordinates` has filled it in.
    """

    angle_std: np.ndarray
    coordinate_bands: dict[int, np.ndarray] | None = None

    def __post_init__(self):
        std = np.asarray(self.angle_std, dtype=float)
        if np.any(std < 0) or not np.all(np.isfinite(std)):
            raise ValueError("angle_std must be finite and non-negative")
        object.__setattr__(self, "angle_std", std)

    def band(self, level: int) -> np.ndarray:
        """Half-width of the ``level``-sigma band in angle space."""
        if level not in BAND_LEVELS:
            raise ValueError(f"level must be one of {BAND_LEVELS}")
        return level * self.angle_std

    def sphere_radius(self, level: int, space: str = "angle") -> np.ndarray:
        """Per-joint bounding radius: the band's maximum over axes."""
        if space == "angle":
            return self.band(level).max(axis=-1)
        if space == "coordinate":
            if not self.coordinate_bands or level not in self.coordinate_bands:
                raise ValueError(
                    f"no coordinate band at level {level}; "
                    "run band_to_coordinates first"
                )
            return self.coordinate_bands[level].max(axis=-1)
        raise ValueError(f"unknown space {space!r}")


def predictive_variation(
    reference: ReferenceCycle,
    collection: CoefficientCollection,
    n_samples: int | None = None,
) -> list[UncertaintyBand]:
    """Exact band per model from the reference's own variability.

    Treats every reference cell as carrying independent noise with the
    reference's per-timestep standard deviation ``s`` and propagates it
    through each model. A model maps every frame on its own through the
    coefficient tensor ``B``, so the spread of a predicted tail entry is
    ``sqrt((s^2)^T (B o B))`` over the one input frame it reads. The
    tail frames are the extended-reference rows ``end - future + 1``
    to ``end``, i.e. reference rows ``(row - past) % n_ref``.

    ``n_samples`` is accepted and ignored: the bands are exact, and the
    argument stays only because ``perfbench`` still passes it.

    Returns one band per collection entry, in entry order.
    """
    cfg = collection.config
    past, future = cfg.past_frames, cfg.future_frames
    var = reference.per_timestep_std**2
    n_ref = var.shape[0]
    bands = []
    for entry in collection.entries:
        rows = np.arange(entry.time_index - future + 1, entry.time_index + 1)
        tail_var = var[(rows - past) % n_ref].reshape(future, -1)
        coeff = cp_reconstruct(entry.factors)
        squared = coeff.reshape(tail_var.shape[1], -1) ** 2
        std = np.sqrt(tail_var @ squared).reshape((future,) + coeff.shape[2:])
        bands.append(UncertaintyBand(angle_std=std))
    return bands


@dataclass(frozen=True)
class PosteriorPredictive:
    """Equal-tailed summary of posterior predictive draws."""

    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    std: np.ndarray
    credibility: float
    n_samples: int


def posterior_predictive(
    x: np.ndarray,
    y: np.ndarray,
    config: RegressionConfig,
    x_new: np.ndarray,
    n_samples: int = 1000,
    credibility: float = 0.95,
    burn_in: int | None = None,
    thin: int = 1,
) -> PosteriorPredictive:
    """Posterior predictive interval at ``x_new`` for one model.

    ``credibility`` is the central coverage of the equal-tailed
    interval; zero degenerates both edges to the sample median.
    Quantiles interpolate linearly between order statistics.
    """
    if not 0 <= credibility < 1:
        raise ValueError("credibility must lie in [0, 1)")
    samples = gibbs_sample(
        x, y, config, x_new, n_samples=n_samples, burn_in=burn_in, thin=thin
    )
    alpha = (1.0 - credibility) / 2.0
    return PosteriorPredictive(
        mean=samples.mean(axis=0),
        lower=np.quantile(samples, alpha, axis=0),
        upper=np.quantile(samples, 1.0 - alpha, axis=0),
        std=samples.std(axis=0, ddof=1),
        credibility=credibility,
        n_samples=samples.shape[0],
    )


def band_to_coordinates(
    band: UncertaintyBand,
    center: np.ndarray,
    skeleton: Skeleton,
    root_positions: np.ndarray,
    lengths: np.ndarray | None = None,
) -> UncertaintyBand:
    """Translate an angle-space band to coordinate space.

    ``center`` is the ``(T, n_segments, 3)`` angle trajectory the band
    surrounds and ``root_positions`` its ``(T, 3)`` root track (or one
    ``(3,)`` position); ``lengths`` overrides the skeleton's segment
    lengths as in :func:`~tensormotion.kinematics.angles_to_coordinates`.
    For every level the band edges ``center +- level * std`` are clipped
    to ``[0, pi]``, back-transformed, and the larger per-entry deviation
    from the back-transformed center is kept. Returns a new band with
    ``coordinate_bands`` filled; the input band is left untouched.
    """
    angles = np.asarray(center, dtype=float)
    if angles.shape != band.angle_std.shape:
        raise ValueError(
            f"center shape {angles.shape} does not match band "
            f"{band.angle_std.shape}"
        )
    mid = angles_to_coordinates(
        np.clip(angles, 0.0, np.pi), root_positions, skeleton, lengths
    )
    coords = {}
    for level in BAND_LEVELS:
        half = band.band(level)
        hi = angles_to_coordinates(
            np.clip(angles + half, 0.0, np.pi), root_positions, skeleton, lengths
        )
        lo = angles_to_coordinates(
            np.clip(angles - half, 0.0, np.pi), root_positions, skeleton, lengths
        )
        coords[level] = np.maximum(np.abs(hi - mid), np.abs(lo - mid))
    return replace(band, coordinate_bands=coords)
