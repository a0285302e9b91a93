"""Tensor primitive tests.

Every operation is checked against an independent oracle: either a
hand-frozen literal on a small case or an explicit element-loop
recomputation that shares no code with the implementation. Column
order conventions (first index fastest) are pinned by literals so a
layout regression cannot pass silently.
"""

import numpy as np
import pytest

from tensormotion.regression import predict
from tensormotion.tensor_ops import (
    CpFactors,
    contracted_product,
    cp_reconstruct,
    frobenius_norm,
    khatri_rao,
)


class TestKhatriRao:
    """Column-wise Kronecker with last-matrix-fastest rows."""

    def test_two_matrices_column_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((2, 4))
        kr = khatri_rao([a, b])
        assert kr.shape == (6, 4)
        for r in range(4):
            np.testing.assert_allclose(kr[:, r], np.kron(a[:, r], b[:, r]))

    def test_single_matrix_identity(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(khatri_rao([a]), a)

    def test_three_matrices_associative(self):
        rng = np.random.default_rng(8)
        mats = [rng.standard_normal((n, 3)) for n in (2, 3, 2)]
        direct = khatri_rao(mats)
        nested = khatri_rao([khatri_rao(mats[:2]), mats[2]])
        np.testing.assert_allclose(direct, nested, rtol=1e-12)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            khatri_rao([np.zeros((2, 2)), np.zeros((2, 3))])


class TestFrobeniusNorm:
    """Entrywise 2-norm over all modes."""

    def test_frozen_3_4_5(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_matches_flat_vector_norm(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 2))
        np.testing.assert_allclose(
            frobenius_norm(t), np.sqrt((t.ravel() ** 2).sum()), rtol=1e-12
        )


class TestContractedProduct:
    """Partial contraction over trailing/leading mode pairs."""

    def test_matrix_times_matrix(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            contracted_product(a, b, 1), a @ b, rtol=1e-12
        )

    def test_full_contraction_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        out = contracted_product(a, b, 2)
        assert out.shape == ()
        np.testing.assert_allclose(out, np.vdot(a, b), rtol=1e-12)

    def test_explicit_loop_oracle(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((3, 4, 5))
        out = contracted_product(a, b, 2)
        assert out.shape == (2, 5)
        expected = np.zeros((2, 5))
        for i in range(2):
            for q in range(5):
                for j in range(3):
                    for k in range(4):
                        expected[i, q] += a[i, j, k] * b[j, k, q]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contracted_product(np.zeros((2, 3)), np.zeros((4, 2)), 1)


class TestCpFactors:
    """Factorized coefficient container."""

    def test_properties(self):
        f = CpFactors(
            input_factors=(np.zeros((4, 2)), np.zeros((3, 2))),
            output_factors=(np.zeros((5, 2)),),
        )
        assert f.rank == 2
        assert f.input_shape == (4, 3)
        assert f.output_shape == (5,)
        assert f.shape == (4, 3, 5)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CpFactors(
                input_factors=(np.zeros((4, 2)),),
                output_factors=(np.zeros((5, 3)),),
            )

    def test_norm_matches_dense_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            f = CpFactors(
                input_factors=tuple(
                    rng.standard_normal((n, 3)) for n in (4, 2)
                ),
                output_factors=tuple(
                    rng.standard_normal((n, 3)) for n in (3, 2)
                ),
            )
            np.testing.assert_allclose(
                f.norm(), frobenius_norm(cp_reconstruct(f)), rtol=1e-10
            )


class TestCpReconstruct:
    """Dense tensor from factor matrices."""

    def test_rank_one_frozen(self):
        f = CpFactors(
            input_factors=(np.array([[1.0], [2.0]]),),
            output_factors=(np.array([[3.0], [5.0]]),),
        )
        np.testing.assert_array_equal(
            cp_reconstruct(f), [[3.0, 5.0], [6.0, 10.0]]
        )

    def test_outer_product_sum_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            rank = int(rng.integers(1, 4))
            mats = [rng.standard_normal((n, rank)) for n in (2, 3, 2, 4)]
            f = CpFactors(
                input_factors=(mats[0], mats[1]),
                output_factors=(mats[2], mats[3]),
            )
            expected = np.zeros((2, 3, 2, 4))
            for r in range(rank):
                term = mats[0][:, r]
                for m in mats[1:]:
                    term = np.multiply.outer(term, m[:, r])
                expected += term
            np.testing.assert_allclose(
                cp_reconstruct(f), expected, rtol=1e-10, atol=1e-12
            )

    def test_factor_memory_layout_does_not_change_result(self):
        """Column-major copies of the factors give the same bits."""
        rng = np.random.default_rng(15)
        ins = tuple(rng.standard_normal((n, 13)) for n in (40, 9, 3))
        outs = tuple(rng.standard_normal((n, 13)) for n in (10, 9, 3))
        c_order = CpFactors(ins, outs)
        f_order = CpFactors(
            tuple(map(np.asfortranarray, ins)),
            tuple(map(np.asfortranarray, outs)),
        )
        np.testing.assert_array_equal(
            cp_reconstruct(f_order), cp_reconstruct(c_order)
        )
        x = rng.standard_normal((5, 40, 9, 3))
        np.testing.assert_array_equal(
            predict(x, f_order), predict(x, c_order)
        )
