"""Ridge-penalized multilinear regression with CP-constrained coefficients.

The model maps an order-``L`` input observation to an order-``M`` output
observation through a coefficient tensor held in CP form. Fitting
alternates exact ridge solves over the factor matrices, which makes the
penalized squared-error objective non-increasing sweep over sweep. A
Gibbs sampler over the matching Bayesian posterior provides predictive
draws for uncertainty work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from tensormotion.tensor_ops import (
    CpFactors,
    contracted_product,
    cp_reconstruct,
    frobenius_norm,
    khatri_rao,
)

__all__ = [
    "FitResult",
    "RegressionConfig",
    "SingularSystemError",
    "fit",
    "gibbs_sample",
    "objective",
    "predict",
]


class SingularSystemError(np.linalg.LinAlgError):
    """A factor-update system could not be solved reliably."""


@dataclass(frozen=True)
class RegressionConfig:
    """Hyperparameters of the alternating solver.

    Attributes
    ----------
    rank : int
        Number of CP components of the coefficient tensor.
    penalty : float
        Ridge weight on the squared Frobenius norm of the coefficient
        tensor. Zero disables regularization; singular systems are then
        reported instead of silently repaired.
    max_sweeps : int
        Upper bound on alternating sweeps.
    tolerance : float
        Relative objective decrease below which the sweep loop stops.
    seed : int
        Seed for factor initialization and for the sampler.
    """

    rank: int
    penalty: float = 0.0
    max_sweeps: int = 500
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.penalty < 0:
            raise ValueError("penalty must be non-negative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit`.

    ``objective_trace[0]`` is the objective at initialization and each
    later entry follows one full sweep. ``residual_variance`` is the
    final squared residual norm divided by the number of scalar
    responses.
    """

    factors: CpFactors
    objective_trace: np.ndarray
    residual_variance: float
    converged: bool = True

    @property
    def n_sweeps(self) -> int:
        return len(self.objective_trace) - 1


def _gram_prod(mats) -> np.ndarray:
    rank = mats[0].shape[1]
    gram = np.ones((rank, rank))
    for m in mats:
        gram *= m.T @ m
    return gram


@dataclass(frozen=True)
class _Compressed:
    """One fit's data after the QR compression ``X_1 = Q R``.

    For every coefficient ``B``, ``||Y_1 - X_1 B||^2`` equals
    ``||Q^T Y_1 - R B||^2 + sse_offset``, so the sweeps run on ``R`` and
    ``Q^T Y_1``, which have ``min(N, prod(P))`` rows instead of ``N``.
    ``x1`` and ``y1`` are those two matrices; the unfoldings are the
    same data with one mode pulled out, ready for a single matmul.
    """

    x1: np.ndarray
    y1: np.ndarray
    input_unfoldings: tuple[np.ndarray, ...]
    output_unfoldings: tuple[np.ndarray, ...]
    sse_offset: float


def _compress(x: np.ndarray, y: np.ndarray) -> _Compressed:
    n_obs = x.shape[0]
    x1 = x.reshape(n_obs, -1, order="F")
    y1 = y.reshape(n_obs, -1, order="F")
    q, r = np.linalg.qr(x1)
    qty = q.T @ y1
    # the part of Y_1 outside the column space of X_1, taken directly:
    # ||Y_1||^2 - ||Q^T Y_1||^2 would cancel catastrophically
    lost = y1 - q @ qty
    rows = r.shape[0]
    xt = r.reshape((rows,) + x.shape[1:], order="F")
    yt = qty.reshape((rows,) + y.shape[1:], order="F")
    # mode l to the front of the data modes (input) or of everything
    # (output); C order then puts the last remaining mode fastest, as
    # khatri_rao orders its rows
    return _Compressed(
        x1=r,
        y1=qty,
        input_unfoldings=tuple(
            np.moveaxis(xt, 1 + l, 1).reshape(rows * p, -1)
            for l, p in enumerate(x.shape[1:])
        ),
        output_unfoldings=tuple(
            np.moveaxis(yt, 1 + m, 0).reshape(q_m, -1)
            for m, q_m in enumerate(y.shape[1:])
        ),
        sse_offset=float(np.vdot(lost, lost)),
    )


def _input_system(data: _Compressed, ins, outs, skip, penalty):
    """Normal equations for one input factor, all others held fixed.

    The unknowns are ordered component-major: entry ``r * P + p`` is
    row ``p`` of column ``r`` of ``ins[skip]``.
    """
    rank = ins[0].shape[1]
    p_l = ins[skip].shape[0]
    rows = data.x1.shape[0]
    others = [f for i, f in enumerate(ins) if i != skip]
    # z[n, p, r]: observation n contracted with column r of every other
    # input factor; the leading row of ones lets an order-1 input, which
    # has no other factor, take the same path
    z = data.input_unfoldings[skip] @ khatri_rao([np.ones((1, rank))] + others)
    z = z.reshape(rows, p_l, rank).transpose(0, 2, 1).reshape(rows, rank * p_l)
    wout = khatri_rao(list(reversed(outs)))
    a = z.T @ z
    blocks = a.reshape(rank, p_l, rank, p_l)
    blocks *= (wout.T @ wout)[:, None, :, None]
    if penalty:
        diag = np.arange(p_l)
        blocks[:, diag, :, diag] += penalty * _gram_prod(others + list(outs))
    rhs = np.einsum("nrp,nr->rp", z.reshape(rows, rank, p_l), data.y1 @ wout)
    return a, rhs.ravel()


def _output_system(data: _Compressed, ins, outs, skip, penalty):
    """Normal equations for the transposed output factor ``outs[skip]``."""
    s = data.x1 @ khatri_rao(list(reversed(ins)))
    others = [f for i, f in enumerate(outs) if i != skip]
    dtd = s.T @ s
    if others:
        dtd = dtd * _gram_prod(others)
    if penalty:
        dtd = dtd + penalty * _gram_prod(list(ins) + others)
    rhs = (data.output_unfoldings[skip] @ khatri_rao([s] + others)).T
    return dtd, rhs


def _solution_ok(a, b, u, rtol) -> bool:
    # a backward-stable solve leaves a tiny relative residual; garbage
    # from an effectively singular system does not
    if not np.all(np.isfinite(u)):
        return False
    resid = np.linalg.norm(a @ u - b)
    scale = np.linalg.norm(a) * np.linalg.norm(u) + np.linalg.norm(b)
    return resid <= rtol * scale


def _solve_checked(a: np.ndarray, b: np.ndarray, penalty: float):
    """Solve the symmetric system ``a u = b``.

    Returns ``u`` and the lower Cholesky factor of ``a``, or ``None`` in
    its place when ``a`` is not numerically positive definite; ``u``
    then comes from the general solvers.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        chol = None
    else:
        u = cho_solve((chol, True), b, check_finite=False)
        if _solution_ok(a, b, u, 1e-8):
            return u, chol
    try:
        u = np.linalg.solve(a, b)
        if _solution_ok(a, b, u, 1e-8):
            return u, chol
    except np.linalg.LinAlgError:
        pass
    if penalty > 0:
        # the penalized system is consistent even when singular (the
        # objective is flat along null directions, which appear when
        # another factor collapses to zero), so the minimum-norm
        # solution is as optimal as any other
        u, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
        if _solution_ok(a, b, u, 1e-6):
            return u, chol
    raise SingularSystemError(
        f"factor-update system is singular (penalty={penalty}); "
        "a positive penalty keeps every update well-posed"
    )


def _objective_parts(data: _Compressed, ins, outs):
    """Squared residual norm and squared coefficient norm."""
    s = data.x1 @ khatri_rao(list(reversed(ins)))
    resid = data.y1 - s @ khatri_rao(list(reversed(outs))).T
    sse = data.sse_offset + float(np.vdot(resid, resid))
    bnorm2 = float(max(_gram_prod(list(ins) + list(outs)).sum(), 0.0))
    return sse, bnorm2


def _validate_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim < 2 or y.ndim < 2:
        raise ValueError("x and y must have an observation mode plus data modes")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"observation counts differ: x has {x.shape[0]}, y has {y.shape[0]}"
        )
    return x, y


def _initial_factors(x, y, config, init):
    if init is not None:
        if init.rank != config.rank:
            raise ValueError(
                f"warm start has rank {init.rank}, config wants {config.rank}"
            )
        if init.input_shape != x.shape[1:] or init.output_shape != y.shape[1:]:
            raise ValueError("warm-start factor shapes do not match the data")
        return [f.copy() for f in init.input_factors], [
            f.copy() for f in init.output_factors
        ]
    rng = np.random.default_rng(config.seed)
    ins = [rng.standard_normal((p, config.rank)) for p in x.shape[1:]]
    outs = [rng.standard_normal((q, config.rank)) for q in y.shape[1:]]
    return ins, outs


def fit(
    x: np.ndarray,
    y: np.ndarray,
    config: RegressionConfig,
    init: CpFactors | None = None,
) -> FitResult:
    """Fit the CP-constrained coefficient tensor by alternating solves.

    The data enter the objective only through ``X_1^T X_1`` and
    ``X_1^T Y_1`` (``X_1``, ``Y_1``: the observations flattened
    column-major), so the fit first takes the reduced QR factorization
    ``X_1 = Q R`` and sweeps on ``R`` and ``Q^T Y_1``, which have
    ``min(N, prod(P))`` rows. Every objective value adds back the
    constant ``||Y_1 - Q Q^T Y_1||^2``, so the trace and
    ``residual_variance`` (divided by ``y.size``) are those of the full
    data. Each factor update is one symmetric positive definite system,
    solved by one Cholesky factorization; a system whose factorization
    fails or whose solution does not pass the residual check goes to
    ``np.linalg.solve`` and then, with a positive penalty, to the
    minimum-norm least-squares solution.

    Parameters
    ----------
    x : np.ndarray
        Input observations, shape ``(N, P_1, ..., P_L)``.
    y : np.ndarray
        Output observations, shape ``(N, Q_1, ..., Q_M)``.
    config : RegressionConfig
        Solver hyperparameters.
    init : CpFactors, optional
        Warm start. When omitted, factors are drawn standard normal from
        ``config.seed``.

    Returns
    -------
    FitResult

    Raises
    ------
    SingularSystemError
        If a factor update is singular, which can happen when
        ``config.penalty`` is zero and the data are rank deficient.
    """
    x, y = _validate_pair(x, y)
    ins, outs = _initial_factors(x, y, config, init)
    data = _compress(x, y)

    sse, bnorm2 = _objective_parts(data, ins, outs)
    trace = [sse + config.penalty * bnorm2]
    converged = False
    for _ in range(config.max_sweeps):
        for l in range(len(ins)):
            a, rhs = _input_system(data, ins, outs, l, config.penalty)
            u, _ = _solve_checked(a, rhs, config.penalty)
            ins[l] = u.reshape(config.rank, -1).T
        for m in range(len(outs)):
            a, rhs = _output_system(data, ins, outs, m, config.penalty)
            vt, _ = _solve_checked(a, rhs, config.penalty)
            outs[m] = vt.T
        sse, bnorm2 = _objective_parts(data, ins, outs)
        trace.append(sse + config.penalty * bnorm2)
        prev, cur = trace[-2], trace[-1]
        if prev - cur <= config.tolerance * max(prev, np.finfo(float).tiny):
            converged = True
            break
    factors = CpFactors(tuple(ins), tuple(outs))
    return FitResult(
        factors=factors,
        objective_trace=np.asarray(trace),
        residual_variance=sse / y.size,
        converged=converged,
    )


def predict(x_new: np.ndarray, factors: CpFactors) -> np.ndarray:
    """Apply the fitted coefficient tensor to new input data.

    ``x_new`` is either a single observation of shape ``(P_1, ..., P_L)``
    or a batch ``(N, P_1, ..., P_L)``; the output shape follows suit.
    """
    x_new = np.asarray(x_new, dtype=float)
    n_in = len(factors.input_factors)
    if x_new.ndim not in (n_in, n_in + 1):
        raise ValueError(
            f"expected an order-{n_in} observation or a batch, "
            f"got order {x_new.ndim}"
        )
    if x_new.shape[x_new.ndim - n_in:] != factors.input_shape:
        raise ValueError(
            f"input extents {x_new.shape[x_new.ndim - n_in:]} do not match "
            f"factor shapes {factors.input_shape}"
        )
    return contracted_product(x_new, cp_reconstruct(factors), n_in)


def objective(
    x: np.ndarray, y: np.ndarray, factors: CpFactors, penalty: float
) -> float:
    """Penalized squared error, composed from the tensor primitives."""
    x, y = _validate_pair(x, y)
    resid = y - contracted_product(x, cp_reconstruct(factors), x.ndim - 1)
    return frobenius_norm(resid) ** 2 + penalty * frobenius_norm(
        cp_reconstruct(factors)
    ) ** 2


def _draw(a, rhs, penalty, sigma, rng) -> np.ndarray:
    """One Gaussian draw with precision ``a / sigma**2`` and mean
    ``a^-1 rhs``; the Cholesky factor of the mean's solve also colours
    the noise."""
    mean, chol = _solve_checked(a, rhs, penalty)
    if chol is None:
        raise SingularSystemError(
            f"conditional precision is not positive definite (penalty={penalty})"
        )
    noise = solve_triangular(
        chol, rng.standard_normal(mean.shape), trans="T", lower=True,
        check_finite=False,
    )
    return mean + sigma * noise


def gibbs_sample(
    x: np.ndarray,
    y: np.ndarray,
    config: RegressionConfig,
    x_new: np.ndarray,
    n_samples: int,
    burn_in: int | None = None,
    thin: int = 1,
) -> np.ndarray:
    """Draw from the posterior predictive distribution at ``x_new``.

    The chain alternates Gaussian draws of each factor matrix
    conditional on the rest with an inverse-gamma draw of the noise
    variance, then emits a predictive sample (mean response plus noise)
    for every retained state. The fitted point estimate initializes the
    chain. Like :func:`fit`, the chain works on the QR-compressed data,
    with the residual outside the inputs' column space added to the
    noise variance's rate, while its shape counts all ``y.size``
    responses. One Cholesky factorization per conditional gives both
    the conditional mean and, by a triangular solve, the coloured
    noise; a conditional precision that is not positive definite
    raises :class:`SingularSystemError`. ``burn_in`` defaults to a
    quarter of the retained length, i.e. a fifth of all iterations; all
    randomness derives from ``config.seed``, so repeated calls give
    identical output.

    Returns
    -------
    np.ndarray
        ``(n_samples, *output_shape)`` for a single ``x_new``
        observation, ``(n_samples, N_new, *output_shape)`` for a batch.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if burn_in is None:
        burn_in = math.ceil(0.25 * n_samples * thin)
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")

    x, y = _validate_pair(x, y)
    point = fit(x, y, config)
    ins = [f.copy() for f in point.factors.input_factors]
    outs = [f.copy() for f in point.factors.output_factors]

    x_new = np.asarray(x_new, dtype=float)
    n_in = x.ndim - 1
    single = x_new.ndim == n_in
    xn = x_new[None] if single else x_new
    if xn.ndim != n_in + 1 or xn.shape[1:] != x.shape[1:]:
        raise ValueError("x_new extents do not match the training input")

    data = _compress(x, y)
    dim_eff = config.rank * (sum(x.shape[1:]) + sum(y.shape[1:]))
    sigma2 = max(point.residual_variance, 1e-12)

    # the fit consumed config.seed for initialization; derive a fresh
    # stream for the chain so both stay reproducible
    rng = np.random.default_rng((config.seed, 1))
    total = burn_in + n_samples * thin
    kept = []
    for it in range(total):
        for l in range(len(ins)):
            a, rhs = _input_system(data, ins, outs, l, config.penalty)
            u = _draw(a, rhs, config.penalty, math.sqrt(sigma2), rng)
            ins[l] = u.reshape(config.rank, -1).T
        for m in range(len(outs)):
            a, rhs = _output_system(data, ins, outs, m, config.penalty)
            outs[m] = _draw(a, rhs, config.penalty, math.sqrt(sigma2), rng).T
        sse, bnorm2 = _objective_parts(data, ins, outs)
        shape = 0.5 * (y.size + (dim_eff if config.penalty > 0 else 0))
        rate = 0.5 * (sse + config.penalty * bnorm2)
        sigma2 = max(rate / rng.gamma(shape), 1e-300)
        # consume predictive noise every iteration so a thinned run
        # keeps exactly the samples a dense run would produce
        z = rng.standard_normal((xn.shape[0],) + y.shape[1:])
        if it >= burn_in and (it - burn_in) % thin == 0:
            coeff = cp_reconstruct(CpFactors(tuple(ins), tuple(outs)))
            mean_new = np.tensordot(xn, coeff, axes=n_in)
            kept.append(mean_new + math.sqrt(sigma2) * z)
    samples = np.stack(kept)
    return samples[:, 0] if single else samples
