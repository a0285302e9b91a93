"""Dense multiway-array primitives used throughout the package.

Every routine here treats an ``np.ndarray`` of order ``K`` as a tensor
whose linearization is column-major: the first index varies fastest.
The Khatri-Rao product and the CP reconstruction follow that single
convention, so a tensor rebuilt from its factors matches the layout the
regression fits against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CpFactors",
    "contracted_product",
    "cp_reconstruct",
    "frobenius_norm",
    "khatri_rao",
]


def khatri_rao(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Khatri-Rao product of a list of matrices.

    All inputs must share the same column count ``R``. The result has
    ``prod(rows)`` rows; the row index of the last matrix varies
    fastest, matching the column-major unfolding convention.
    """
    mats = [np.asarray(m) for m in matrices]
    if not mats:
        raise ValueError("khatri_rao needs at least one matrix")
    if any(m.ndim != 2 or m.shape[1] != mats[0].shape[1] for m in mats):
        raise ValueError("khatri_rao expects matrices with a common column count")
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def frobenius_norm(tensor: np.ndarray) -> float:
    """Frobenius norm of a tensor of any order."""
    return float(np.linalg.norm(np.asarray(tensor, dtype=float).ravel()))


def contracted_product(a: np.ndarray, b: np.ndarray, n_modes: int) -> np.ndarray:
    """Contract the last ``n_modes`` modes of ``a`` with the first
    ``n_modes`` modes of ``b``.

    For ``a`` of shape ``(*K, *P)`` and ``b`` of shape ``(*P, *Q)`` the
    result has shape ``(*K, *Q)``; entry ``[k, q]`` is the sum over all
    ``p`` of ``a[k, p] * b[p, q]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if n_modes < 0:
        raise ValueError("n_modes must be non-negative")
    if n_modes > a.ndim or n_modes > b.ndim:
        raise ValueError(
            f"cannot contract {n_modes} modes of arrays with orders "
            f"{a.ndim} and {b.ndim}"
        )
    if n_modes and a.shape[a.ndim - n_modes:] != b.shape[:n_modes]:
        raise ValueError(
            f"contracted extents differ: {a.shape[a.ndim - n_modes:]} "
            f"vs {b.shape[:n_modes]}"
        )
    return np.tensordot(a, b, axes=n_modes)


@dataclass(frozen=True)
class CpFactors:
    """CP factorization of a coefficient tensor.

    ``input_factors[l]`` has shape ``(P_l, R)`` and ``output_factors[m]``
    has shape ``(Q_m, R)``; all matrices share the column count ``R``.
    The represented tensor is the sum over ``r`` of the outer product of
    the ``r``-th columns, with shape ``(*P, *Q)``. The matrices are
    stored row-major whatever layout they arrive in: the products in
    :func:`cp_reconstruct` round by memory order, so equal factors then
    give bit-identical tensors.
    """

    input_factors: tuple[np.ndarray, ...]
    output_factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        ins = tuple(
            np.ascontiguousarray(f, dtype=float) for f in self.input_factors
        )
        outs = tuple(
            np.ascontiguousarray(f, dtype=float) for f in self.output_factors
        )
        object.__setattr__(self, "input_factors", ins)
        object.__setattr__(self, "output_factors", outs)
        all_f = ins + outs
        if not all_f:
            raise ValueError("CpFactors needs at least one factor matrix")
        for f in all_f:
            if f.ndim != 2:
                raise ValueError("factor matrices must be 2-D")
        ranks = {f.shape[1] for f in all_f}
        if len(ranks) != 1:
            raise ValueError(f"factor matrices disagree on rank: {sorted(ranks)}")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")

    @property
    def rank(self) -> int:
        return (self.input_factors + self.output_factors)[0].shape[1]

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.input_factors)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.output_factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.input_shape + self.output_shape

    def norm(self) -> float:
        """Frobenius norm of the represented tensor, via Gram matrices."""
        gram = np.ones((self.rank, self.rank))
        for f in self.input_factors + self.output_factors:
            gram *= f.T @ f
        # clip: rounding can push the sum a hair below zero
        return float(np.sqrt(max(gram.sum(), 0.0)))


def cp_reconstruct(factors: CpFactors) -> np.ndarray:
    """Materialize the dense tensor represented by CP factors."""
    mats = list(factors.input_factors + factors.output_factors)
    # khatri_rao puts the last matrix's row index fastest, so feed the
    # factor list reversed to get a column-major vectorization
    vec = khatri_rao(list(reversed(mats))) @ np.ones(factors.rank)
    return vec.reshape(factors.shape, order="F")
