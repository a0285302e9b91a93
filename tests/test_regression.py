"""Alternating-solver and posterior-sampler tests.

The key oracles are closed forms that bypass the factorized solver
entirely: ordinary and ridge least squares on the flattened problem.
When the factor rank spans the full coefficient space the penalized
objective has a unique dense minimizer, so the alternating solver must
land on the same tensor.
"""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from tensormotion.regression import (
    FitResult,
    RegressionConfig,
    SingularSystemError,
    _compress,
    _initial_factors,
    _solve_checked,
    fit,
    gibbs_sample,
    objective,
    predict,
)
from tensormotion.tensor_ops import (
    CpFactors,
    cp_reconstruct,
    frobenius_norm,
    khatri_rao,
)


def _flat_ridge(x: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """Dense ridge coefficient on column-major flattened data."""
    n = x.shape[0]
    x1 = x.reshape(n, -1, order="F")
    y1 = y.reshape(n, -1, order="F")
    gram = x1.T @ x1 + penalty * np.eye(x1.shape[1])
    bmat = np.linalg.solve(gram, x1.T @ y1)
    return bmat.reshape(x.shape[1:] + y.shape[1:], order="F")


def _random_problem(rng, n, in_shape, out_shape, rank, noise=0.1):
    """Data from a planted factorized coefficient plus Gaussian noise."""
    x = rng.standard_normal((n,) + in_shape)
    planted = CpFactors(
        input_factors=tuple(rng.standard_normal((p, rank)) for p in in_shape),
        output_factors=tuple(rng.standard_normal((q, rank)) for q in out_shape),
    )
    clean = np.tensordot(
        x.reshape(n, -1, order="F"),
        cp_reconstruct(planted).reshape(
            (int(np.prod(in_shape)), -1), order="F"
        ),
        axes=1,
    ).reshape((n,) + out_shape, order="F")
    y = clean + noise * rng.standard_normal(clean.shape)
    return x, y, planted


class TestRidgeEquivalence:
    """Full-rank factorized fits reproduce the dense closed form."""

    @pytest.mark.parametrize("penalty", [0.1, 5.0, 50.0])
    def test_matrix_case(self, penalty):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal((40, 4))
        config = RegressionConfig(
            rank=4, penalty=penalty, max_sweeps=600, tolerance=1e-15, seed=1
        )
        result = fit(x, y, config)
        dense = _flat_ridge(x, y, penalty)
        got = cp_reconstruct(result.factors)
        rel = frobenius_norm(got - dense) / frobenius_norm(dense)
        assert rel < 1e-7

    def test_multiway_case(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((50, 2, 2))
        y = rng.standard_normal((50, 2))
        config = RegressionConfig(
            rank=4, penalty=1.0, max_sweeps=800, tolerance=1e-15, seed=2
        )
        result = fit(x, y, config)
        dense = _flat_ridge(x, y, 1.0)
        rel = frobenius_norm(cp_reconstruct(result.factors) - dense)
        assert rel / frobenius_norm(dense) < 1e-6

    def test_unpenalized_matches_lstsq(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 3))
        config = RegressionConfig(
            rank=3, penalty=0.0, max_sweeps=600, tolerance=1e-15, seed=3
        )
        result = fit(x, y, config)
        dense, *_ = np.linalg.lstsq(x, y, rcond=None)
        rel = frobenius_norm(cp_reconstruct(result.factors) - dense)
        assert rel / frobenius_norm(dense) < 1e-7


class TestObjectiveTrace:
    """Sweep-by-sweep objective behavior."""

    def test_never_increases(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            n_in = int(rng.integers(1, 3))
            n_out = int(rng.integers(1, 3))
            in_shape = tuple(int(v) for v in rng.integers(2, 5, n_in))
            out_shape = tuple(int(v) for v in rng.integers(2, 5, n_out))
            n = int(np.prod(in_shape)) + int(rng.integers(3, 10))
            x, y, _ = _random_problem(
                rng, n, in_shape, out_shape, rank=2, noise=0.5
            )
            config = RegressionConfig(
                rank=int(rng.integers(1, 4)),
                penalty=float(rng.choice([0.0, 0.5, 10.0])),
                max_sweeps=15,
                tolerance=1e-15,
                seed=trial,
            )
            trace = np.asarray(fit(x, y, config).objective_trace)
            drops = np.diff(trace)
            assert np.all(drops <= 1e-10 * np.maximum(trace[:-1], 1.0))

    def test_final_value_matches_objective_function(self):
        """The trace of the compressed solver adds back the residual
        outside the column space of the inputs, for N above, at and
        below the input size P = 6."""
        for n_obs in (25, 6, 4):
            rng = np.random.default_rng(24)
            x, y, _ = _random_problem(rng, n_obs, (3, 2), (2,), rank=2)
            config = RegressionConfig(rank=2, penalty=3.0, max_sweeps=30, seed=4)
            result = fit(x, y, config)
            recomputed = objective(x, y, result.factors, 3.0)
            np.testing.assert_allclose(
                recomputed, result.objective_trace[-1], rtol=1e-10
            )

    def test_objective_composes_from_primitives(self):
        rng = np.random.default_rng(25)
        x, y, planted = _random_problem(rng, 20, (3,), (2, 2), rank=2)
        penalty = 2.5
        got = objective(x, y, planted, penalty)
        dense = cp_reconstruct(planted)
        resid = y - np.tensordot(
            x, dense.reshape(3, 2, 2), axes=1
        )
        expected = (resid**2).sum() + penalty * frobenius_norm(dense) ** 2
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def _factor_system(x, y, ins, outs, k, penalty):
    """Uncompressed normal equations in the entries of factor ``k`` of
    ``ins + outs``, built column by column from unit factors.

    The prediction and the coefficient are linear in each factor, so
    unknown ``j = r * rows + p`` (entry ``[p, r]``) has the predictions
    and the coefficient of the unit factor as its design columns.
    """
    factors = list(ins) + list(outs)
    n_in = len(ins)
    rows, rank = factors[k].shape
    n = x.shape[0]
    x1 = x.reshape(n, -1, order="F")
    design, coeff = [], []
    for r in range(rank):
        for p in range(rows):
            unit = np.zeros((rows, rank))
            unit[p, r] = 1.0
            trial = factors.copy()
            trial[k] = unit
            b = cp_reconstruct(CpFactors(tuple(trial[:n_in]), tuple(trial[n_in:])))
            design.append((x1 @ b.reshape(x1.shape[1], -1, order="F")).ravel())
            coeff.append(b.ravel())
    d, c = np.array(design).T, np.array(coeff).T
    a = d.T @ d + penalty * (c.T @ c)
    return a, d.T @ y.reshape(n, -1, order="F").ravel()


def _dense_sweep(x, y, ins, outs, penalty):
    """One uncompressed ALS sweep: every factor in turn, inputs first."""
    ins, outs = list(ins), list(outs)
    for k in range(len(ins) + len(outs)):
        a, rhs = _factor_system(x, y, ins, outs, k, penalty)
        target = ins if k < len(ins) else outs
        i = k if k < len(ins) else k - len(ins)
        rank = target[i].shape[1]
        target[i] = np.linalg.solve(a, rhs).reshape(rank, -1).T
    return ins, outs


class TestCompressedSolver:
    """Sweeps on the QR-compressed data against the uncompressed problem."""

    @pytest.mark.parametrize(
        "in_shape", [(4,), (3, 2), (2, 2, 2)], ids=["order1", "order2", "order3"]
    )
    def test_one_sweep_matches_uncompressed_sweep(self, in_shape):
        rng = np.random.default_rng(41)
        out_shape = (3,) if len(in_shape) == 1 else (2, 2)
        x, y, _ = _random_problem(rng, 30, in_shape, out_shape, rank=2)
        start = CpFactors(
            tuple(rng.standard_normal((p, 3)) for p in in_shape),
            tuple(rng.standard_normal((q, 3)) for q in out_shape),
        )
        config = RegressionConfig(
            rank=3, penalty=2.0, max_sweeps=1, tolerance=1e-15, seed=0
        )
        got = fit(x, y, config, init=start).factors
        ins, outs = _dense_sweep(
            x, y, start.input_factors, start.output_factors, 2.0
        )
        for a, b in zip(got.input_factors + got.output_factors, ins + outs):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0)

    def test_residual_variance_is_uncompressed_sse_per_response(self):
        rng = np.random.default_rng(42)
        x, y, _ = _random_problem(rng, 40, (3, 2), (2, 2), rank=2, noise=0.5)
        config = RegressionConfig(rank=2, penalty=1.0, max_sweeps=20, seed=1)
        result = fit(x, y, config)
        resid = y - predict(x, result.factors)
        np.testing.assert_allclose(
            result.residual_variance, (resid**2).sum() / y.size, rtol=1e-10
        )

    def test_cholesky_failure_reaches_lstsq_or_raises(self):
        """A singular semi-definite system: Cholesky and LU both fail, the
        penalized path takes the minimum-norm solution and the
        unpenalized one reports the singularity."""
        a = np.ones((2, 2))
        b = np.array([1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        u, chol = _solve_checked(a, b, penalty=1.0)
        assert chol is None
        np.testing.assert_allclose(u, [0.5, 0.5], rtol=1e-12)
        with pytest.raises(SingularSystemError):
            _solve_checked(a, b, penalty=0.0)


# The per-system sweep that the shared sweep replaced, kept as an oracle:
# every system is built from scratch, each product as many times as a
# system needs it, and solved by Cholesky through ``cho_solve``.


def _oracle_gram_prod(mats):
    rank = mats[0].shape[1]
    gram = np.ones((rank, rank))
    for m in mats:
        gram *= m.T @ m
    return gram


def _oracle_input_system(data, ins, outs, skip, penalty):
    rank = ins[0].shape[1]
    p_l = ins[skip].shape[0]
    rows = data.x1.shape[0]
    others = [f for i, f in enumerate(ins) if i != skip]
    z = data.input_unfoldings[skip] @ khatri_rao([np.ones((1, rank))] + others)
    z = z.reshape(rows, p_l, rank).transpose(0, 2, 1).reshape(rows, rank * p_l)
    wout = khatri_rao(list(reversed(outs)))
    a = z.T @ z
    blocks = a.reshape(rank, p_l, rank, p_l)
    blocks *= (wout.T @ wout)[:, None, :, None]
    if penalty:
        diag = np.arange(p_l)
        blocks[:, diag, :, diag] += penalty * _oracle_gram_prod(others + list(outs))
    rhs = np.einsum("nrp,nr->rp", z.reshape(rows, rank, p_l), data.y1 @ wout)
    return a, rhs.ravel()


def _oracle_output_system(data, ins, outs, skip, penalty):
    s = data.x1 @ khatri_rao(list(reversed(ins)))
    others = [f for i, f in enumerate(outs) if i != skip]
    dtd = s.T @ s
    if others:
        dtd = dtd * _oracle_gram_prod(others)
    if penalty:
        dtd = dtd + penalty * _oracle_gram_prod(list(ins) + others)
    rhs = (data.output_unfoldings[skip] @ khatri_rao([s] + others)).T
    return dtd, rhs


def _oracle_objective_parts(data, ins, outs):
    s = data.x1 @ khatri_rao(list(reversed(ins)))
    resid = data.y1 - s @ khatri_rao(list(reversed(outs))).T
    sse = data.sse_offset + float(np.vdot(resid, resid))
    bnorm2 = float(max(_oracle_gram_prod(list(ins) + list(outs)).sum(), 0.0))
    return sse, bnorm2


def _oracle_solve(a, b):
    """The Cholesky path of the solver; the cases below never leave it."""
    chol = np.linalg.cholesky(a)
    u = cho_solve((chol, True), b, check_finite=False)
    resid = np.linalg.norm(a @ u - b)
    scale = np.linalg.norm(a) * np.linalg.norm(u) + np.linalg.norm(b)
    assert np.all(np.isfinite(u)) and resid <= 1e-8 * scale
    return u, chol


def _oracle_draw(a, rhs, sigma, rng):
    mean, chol = _oracle_solve(a, rhs)
    noise = solve_triangular(
        chol, rng.standard_normal(mean.shape), trans="T", lower=True,
        check_finite=False,
    )
    return mean + sigma * noise


def _oracle_fit(x, y, config, init=None):
    ins, outs = _initial_factors(x, y, config, init)
    data = _compress(x, y)
    sse, bnorm2 = _oracle_objective_parts(data, ins, outs)
    trace = [sse + config.penalty * bnorm2]
    for _ in range(config.max_sweeps):
        for l in range(len(ins)):
            a, rhs = _oracle_input_system(data, ins, outs, l, config.penalty)
            ins[l] = _oracle_solve(a, rhs)[0].reshape(config.rank, -1).T
        for m in range(len(outs)):
            a, rhs = _oracle_output_system(data, ins, outs, m, config.penalty)
            outs[m] = _oracle_solve(a, rhs)[0].T
        sse, bnorm2 = _oracle_objective_parts(data, ins, outs)
        trace.append(sse + config.penalty * bnorm2)
        prev, cur = trace[-2], trace[-1]
        if prev - cur <= config.tolerance * max(prev, np.finfo(float).tiny):
            break
    return np.asarray(trace), ins, outs, sse / y.size


def _oracle_gibbs(x, y, config, x_new, n_samples):
    burn_in = math.ceil(0.25 * n_samples)
    _, ins, outs, variance = _oracle_fit(x, y, config)
    data = _compress(x, y)
    dim_eff = config.rank * (sum(x.shape[1:]) + sum(y.shape[1:]))
    sigma2 = max(variance, 1e-12)
    rng = np.random.default_rng((config.seed, 1))
    kept = []
    for it in range(burn_in + n_samples):
        for l in range(len(ins)):
            a, rhs = _oracle_input_system(data, ins, outs, l, config.penalty)
            u = _oracle_draw(a, rhs, math.sqrt(sigma2), rng)
            ins[l] = u.reshape(config.rank, -1).T
        for m in range(len(outs)):
            a, rhs = _oracle_output_system(data, ins, outs, m, config.penalty)
            outs[m] = _oracle_draw(a, rhs, math.sqrt(sigma2), rng).T
        sse, bnorm2 = _oracle_objective_parts(data, ins, outs)
        shape = 0.5 * (y.size + (dim_eff if config.penalty > 0 else 0))
        rate = 0.5 * (sse + config.penalty * bnorm2)
        sigma2 = max(rate / rng.gamma(shape), 1e-300)
        z = rng.standard_normal((x_new.shape[0],) + y.shape[1:])
        if it >= burn_in:
            coeff = cp_reconstruct(CpFactors(tuple(ins), tuple(outs)))
            mean_new = np.tensordot(x_new, coeff, axes=x.ndim - 1)
            kept.append(mean_new + math.sqrt(sigma2) * z)
    return np.stack(kept)


_IN_SHAPES = [(4,), (3, 2), (2, 2, 2)]
_OUT_SHAPES = [(3,), (2, 2)]


class TestSharedSweepIsBitIdentical:
    """The shared sweep computes what the per-system sweep computed, in
    the same order, so traces, factors and draws match it bit for bit."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("penalty", [0.0, 2.0])
    @pytest.mark.parametrize("out_shape", _OUT_SHAPES, ids=["out1", "out2"])
    @pytest.mark.parametrize(
        "in_shape", _IN_SHAPES, ids=["in1", "in2", "in3"]
    )
    def test_fit(self, in_shape, out_shape, penalty, warm):
        rng = np.random.default_rng(44)
        # 40 observations against at most 8 input entries: well posed
        # even without a penalty
        x, y, _ = _random_problem(rng, 40, in_shape, out_shape, rank=2)
        config = RegressionConfig(
            rank=2, penalty=penalty, max_sweeps=25, tolerance=1e-15, seed=12
        )
        init = None
        if warm:
            init = CpFactors(
                tuple(rng.standard_normal((p, 2)) for p in in_shape),
                tuple(rng.standard_normal((q, 2)) for q in out_shape),
            )
        got = fit(x, y, config, init=init)
        trace, ins, outs, variance = _oracle_fit(x, y, config, init)
        # all 25 sweeps run, except for the matrix case, which meets the
        # tolerance after 5 or 6; equal traces also pin that stop
        np.testing.assert_array_equal(got.objective_trace, trace)
        for a, b in zip(
            got.factors.input_factors + got.factors.output_factors, ins + outs
        ):
            np.testing.assert_array_equal(a, b)
        assert got.residual_variance == variance

    @pytest.mark.parametrize("penalty", [0.0, 2.0])
    @pytest.mark.parametrize("out_shape", _OUT_SHAPES, ids=["out1", "out2"])
    @pytest.mark.parametrize(
        "in_shape", _IN_SHAPES, ids=["in1", "in2", "in3"]
    )
    def test_gibbs_chain(self, in_shape, out_shape, penalty):
        rng = np.random.default_rng(45)
        x, y, _ = _random_problem(rng, 40, in_shape, out_shape, rank=2)
        config = RegressionConfig(
            rank=2, penalty=penalty, max_sweeps=25, tolerance=1e-15, seed=13
        )
        got = gibbs_sample(x, y, config, x[:3], n_samples=20)
        np.testing.assert_array_equal(
            got, _oracle_gibbs(x, y, config, x[:3], n_samples=20)
        )


class TestFitBehavior:
    """Recovery, shrinkage, symmetry, and warm starts."""

    def test_noiseless_planted_recovery(self):
        rng = np.random.default_rng(26)
        x, y, _ = _random_problem(rng, 60, (4, 3), (3,), rank=2, noise=0.0)
        config = RegressionConfig(
            rank=2, penalty=0.0, max_sweeps=300, tolerance=1e-14, seed=5
        )
        result = fit(x, y, config)
        pred = predict(x, result.factors)
        rel = frobenius_norm(pred - y) / frobenius_norm(y)
        assert rel < 1e-6

    def test_zero_targets_give_zero_coefficient(self):
        rng = np.random.default_rng(27)
        x = rng.standard_normal((15, 3, 2))
        y = np.zeros((15, 2))
        config = RegressionConfig(rank=2, penalty=1.0, max_sweeps=10, seed=6)
        result = fit(x, y, config)
        assert result.factors.norm() < 1e-8
        assert result.objective_trace[-1] < 1e-12

    def test_heavier_penalty_shrinks_norm(self):
        rng = np.random.default_rng(28)
        x, y, _ = _random_problem(rng, 40, (4,), (3,), rank=2)
        norms = []
        for penalty in (0.1, 10.0, 1000.0):
            config = RegressionConfig(
                rank=2, penalty=penalty, max_sweeps=200, seed=7
            )
            norms.append(fit(x, y, config).factors.norm())
        assert norms[0] > norms[1] > norms[2]

    def test_update_order_is_immaterial_at_convergence(self):
        """Transposing input modes relabels which factor updates first."""
        rng = np.random.default_rng(29)
        x, y, _ = _random_problem(rng, 40, (3, 4), (2,), rank=2)
        config = RegressionConfig(
            rank=2, penalty=4.0, max_sweeps=500, tolerance=1e-15, seed=8
        )
        start = CpFactors(
            input_factors=(
                rng.standard_normal((3, 2)),
                rng.standard_normal((4, 2)),
            ),
            output_factors=(rng.standard_normal((2, 2)),),
        )
        swapped = CpFactors(
            input_factors=(start.input_factors[1], start.input_factors[0]),
            output_factors=start.output_factors,
        )
        direct = fit(x, y, config, init=start)
        other = fit(np.swapaxes(x, 1, 2), y, config, init=swapped)
        np.testing.assert_allclose(
            direct.objective_trace[-1],
            other.objective_trace[-1],
            rtol=1e-8,
        )

    def test_warm_start_resumes_from_given_factors(self):
        rng = np.random.default_rng(30)
        x, y, _ = _random_problem(rng, 30, (3,), (2,), rank=2)
        config = RegressionConfig(rank=2, penalty=1.0, max_sweeps=50, seed=9)
        cold = fit(x, y, config)
        warm = fit(x, y, config, init=cold.factors)
        np.testing.assert_allclose(
            warm.objective_trace[0], cold.objective_trace[-1], rtol=1e-9
        )
        assert warm.n_sweeps <= cold.n_sweeps

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(31)
        x, y, _ = _random_problem(rng, 20, (3,), (2,), rank=2)
        config = RegressionConfig(rank=2, penalty=1.0, max_sweeps=20, seed=10)
        a, b = fit(x, y, config), fit(x, y, config)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
        for fa, fb in zip(
            a.factors.input_factors + a.factors.output_factors,
            b.factors.input_factors + b.factors.output_factors,
        ):
            np.testing.assert_array_equal(fa, fb)

    def test_result_reports_convergence(self):
        rng = np.random.default_rng(32)
        x, y, _ = _random_problem(rng, 30, (3,), (2,), rank=1)
        done = fit(
            x, y, RegressionConfig(rank=1, penalty=1.0, max_sweeps=200, seed=0)
        )
        assert done.converged and isinstance(done, FitResult)
        cut = fit(
            x,
            y,
            RegressionConfig(
                rank=1, penalty=1.0, max_sweeps=1, tolerance=1e-15, seed=0
            ),
        )
        assert not cut.converged


class TestPredict:
    """Coefficient application to new inputs."""

    def test_rank_one_matrix_frozen(self):
        factors = CpFactors(
            input_factors=(np.array([[1.0], [2.0]]),),
            output_factors=(np.array([[1.0], [0.0], [3.0]]),),
        )
        x_new = np.array([3.0, 4.0])
        np.testing.assert_allclose(
            predict(x_new, factors), [11.0, 0.0, 33.0]
        )

    def test_batch_matches_stacked_singles(self):
        rng = np.random.default_rng(33)
        factors = CpFactors(
            input_factors=(rng.standard_normal((3, 2)),
                           rng.standard_normal((2, 2))),
            output_factors=(rng.standard_normal((4, 2)),),
        )
        batch = rng.standard_normal((5, 3, 2))
        joint = predict(batch, factors)
        assert joint.shape == (5, 4)
        for i in range(5):
            np.testing.assert_allclose(
                joint[i], predict(batch[i], factors), rtol=1e-12
            )

    def test_shape_mismatch_rejected(self):
        factors = CpFactors(
            input_factors=(np.zeros((3, 1)),),
            output_factors=(np.zeros((2, 1)),),
        )
        with pytest.raises(ValueError):
            predict(np.zeros(4), factors)


class TestFailureModes:
    """Singular systems and invalid configuration."""

    def test_rank_deficient_unpenalized_raises(self):
        x = np.ones((6, 3))
        rng = np.random.default_rng(34)
        y = rng.standard_normal((6, 2))
        config = RegressionConfig(rank=2, penalty=0.0, max_sweeps=5, seed=0)
        with pytest.raises(SingularSystemError):
            fit(x, y, config)

    def test_same_data_succeeds_with_penalty(self):
        x = np.ones((6, 3))
        rng = np.random.default_rng(35)
        y = rng.standard_normal((6, 2))
        config = RegressionConfig(rank=2, penalty=1.0, max_sweeps=5, seed=0)
        fit(x, y, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegressionConfig(rank=0)
        with pytest.raises(ValueError):
            RegressionConfig(rank=2, penalty=-1.0)
        with pytest.raises(ValueError):
            RegressionConfig(rank=2, max_sweeps=0)
        with pytest.raises(ValueError):
            RegressionConfig(rank=2, tolerance=-1e-3)

    def test_observation_count_mismatch(self):
        with pytest.raises(ValueError):
            fit(
                np.zeros((5, 2)),
                np.zeros((4, 2)),
                RegressionConfig(rank=1, penalty=1.0),
            )


class TestGibbsSampler:
    """Posterior predictive draws."""

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(36)
        x, y, _ = _random_problem(rng, 25, (3,), (2,), rank=1)
        config = RegressionConfig(rank=1, penalty=1.0, max_sweeps=20, seed=11)
        x_new = rng.standard_normal(3)
        a = gibbs_sample(x, y, config, x_new, n_samples=30)
        b = gibbs_sample(x, y, config, x_new, n_samples=30)
        np.testing.assert_array_equal(a, b)

    def test_shapes_single_and_batch(self):
        rng = np.random.default_rng(37)
        x, y, _ = _random_problem(rng, 25, (3, 2), (2, 2), rank=1)
        config = RegressionConfig(rank=1, penalty=1.0, max_sweeps=10, seed=12)
        single = gibbs_sample(x, y, config, x[0], n_samples=8)
        assert single.shape == (8, 2, 2)
        batch = gibbs_sample(x, y, config, x[:4], n_samples=8)
        assert batch.shape == (8, 4, 2, 2)

    def test_centers_near_point_prediction(self):
        rng = np.random.default_rng(38)
        x, y, _ = _random_problem(rng, 80, (3,), (2,), rank=1, noise=0.05)
        config = RegressionConfig(
            rank=1, penalty=0.1, max_sweeps=100, seed=13
        )
        x_new = rng.standard_normal(3)
        samples = gibbs_sample(x, y, config, x_new, n_samples=400, thin=2)
        point = predict(x_new, fit(x, y, config).factors)
        spread = samples.std(axis=0)
        assert np.all(np.abs(samples.mean(axis=0) - point) < 5 * spread)

    def test_thin_and_burn_in_subsample_the_dense_chain(self):
        rng = np.random.default_rng(39)
        x, y, _ = _random_problem(rng, 25, (3,), (2,), rank=1)
        config = RegressionConfig(rank=1, penalty=1.0, max_sweeps=10, seed=14)
        dense = gibbs_sample(x, y, config, x[0], n_samples=10, burn_in=0)
        thinned = gibbs_sample(
            x, y, config, x[0], n_samples=5, burn_in=0, thin=2
        )
        np.testing.assert_array_equal(thinned, dense[::2])
        burned = gibbs_sample(x, y, config, x[0], n_samples=6, burn_in=4)
        np.testing.assert_array_equal(burned, dense[4:])

    def test_matches_uncompressed_oracle_chain(self):
        """Same seed, same draws: the oracle solves each conditional with
        LU on the uncompressed normal equations, factors it separately
        and colours the noise with that factor."""
        rng = np.random.default_rng(43)
        x, y, _ = _random_problem(rng, 30, (3, 2), (2, 2), rank=2)
        config = RegressionConfig(rank=2, penalty=1.5, max_sweeps=20, seed=15)
        x_new = x[:3]
        got = gibbs_sample(x, y, config, x_new, n_samples=6, burn_in=2)

        point = fit(x, y, config)
        ins = list(point.factors.input_factors)
        outs = list(point.factors.output_factors)
        sigma2 = max(point.residual_variance, 1e-12)
        chain = np.random.default_rng((config.seed, 1))
        dim_eff = config.rank * (sum(x.shape[1:]) + sum(y.shape[1:]))
        expected = []
        for it in range(2 + 6):
            for k in range(len(ins) + len(outs)):
                a, rhs = _factor_system(x, y, ins, outs, k, config.penalty)
                mean = np.linalg.solve(a, rhs)
                chol = np.linalg.cholesky(a)
                noise = np.linalg.solve(chol.T, chain.standard_normal(mean.shape))
                u = (mean + np.sqrt(sigma2) * noise).reshape(config.rank, -1).T
                if k < len(ins):
                    ins[k] = u
                else:
                    outs[k - len(ins)] = u
            factors = CpFactors(tuple(ins), tuple(outs))
            rate = 0.5 * objective(x, y, factors, config.penalty)
            shape = 0.5 * (y.size + dim_eff)
            sigma2 = max(rate / chain.gamma(shape), 1e-300)
            z = chain.standard_normal((3,) + y.shape[1:])
            if it >= 2:
                mean_new = np.tensordot(x_new, cp_reconstruct(factors), axes=2)
                expected.append(mean_new + np.sqrt(sigma2) * z)
        np.testing.assert_allclose(got, np.stack(expected), rtol=1e-8)

    def test_invalid_arguments(self):
        rng = np.random.default_rng(40)
        x, y, _ = _random_problem(rng, 10, (2,), (2,), rank=1)
        config = RegressionConfig(rank=1, penalty=1.0, max_sweeps=5, seed=0)
        with pytest.raises(ValueError):
            gibbs_sample(x, y, config, x[0], n_samples=0)
        with pytest.raises(ValueError):
            gibbs_sample(x, y, config, x[0], n_samples=4, thin=0)
        with pytest.raises(ValueError):
            gibbs_sample(x, y, config, x[0], n_samples=4, burn_in=-1)
