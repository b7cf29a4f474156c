"""Dense hermitian/complex matrix kernel.

Spectral decomposition, functional calculus on the support, support
projections, Kronecker and direct-sum constructions.  Everything is dense
numpy; target dimensions are small (single factors up to ~64, tensor
products up to 4096).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    NotPositiveSemidefinite,
    ResourceCapExceeded,
    ValidationFailure,
)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def assert_finite(a: np.ndarray, what: str = "matrix") -> None:
    if not np.isfinite(a).all():
        raise ValidationFailure(f"{what} contains non-finite entries")


def as_hermitian(a: np.ndarray, tol: float = defaults.HERMITICITY_TOL) -> np.ndarray:
    """Validate hermiticity within `tol` and return the symmetrized matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    assert_finite(a)
    dev = np.abs(a - dagger(a)).max()
    if dev > tol:
        raise ValidationFailure(f"matrix is not hermitian: max asymmetry {dev:.3e} > {tol:.1e}")
    return 0.5 * (a + dagger(a))


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`numpy.linalg.eigh` (ascending), with a solver failure raised as EigensolverFailure."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(
            f"eigensolver failed on a {a.shape[-2]}x{a.shape[-1]} matrix "
            f"with Frobenius norm {frobenius(a):.6e}"
        ) from exc


def spectral_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a hermitian matrix."""
    w, v = _eigh(a)
    return w[::-1].copy(), v[:, ::-1].copy()


def clamp_psd_spectrum(w: np.ndarray, tol: float = defaults.NEGATIVE_EIGENVALUE_TOL) -> np.ndarray:
    """Clamp eigenvalues in [-tol, 0) to 0; reject anything more negative."""
    low = float(w.min()) if w.size else 0.0
    if low < -tol:
        raise NotPositiveSemidefinite(f"eigenvalue {low:.3e} below -{tol:.1e}")
    return np.maximum(w, 0.0)


def _clamp_ascending(w: np.ndarray, tol: float = defaults.NEGATIVE_EIGENVALUE_TOL) -> np.ndarray:
    """`clamp_psd_spectrum` of an eigensolver's ascending output (or stack), returned descending.

    The smallest eigenvalues are the first entries, so only those are reduced.
    """
    low = np.minimum.reduce(w[..., 0], axis=None)
    if low < -tol:
        raise NotPositiveSemidefinite(f"eigenvalue {low:.3e} below -{tol:.1e}")
    return np.maximum(w[..., ::-1], 0.0)


def _support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a PSD matrix above `defaults.SUPPORT_CUTOFF` relative to the
    largest, and their eigenvector columns; none for the zero matrix."""
    w, v = spectral_decompose(as_hermitian(a))
    w = clamp_psd_spectrum(w)
    keep = w > defaults.SUPPORT_CUTOFF * w[0]
    return w[keep], v[:, keep]


def matrix_log_on_support(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator logarithm restricted to the support of a PSD matrix.

    Eigenvalues at or below `defaults.SUPPORT_CUTOFF` (relative to the
    largest) are treated as outside the support and contribute 0.  Returns
    (logarithm, support projector).
    """
    w, vk = _support(a)
    log = (vk * np.log(w)) @ dagger(vk)
    proj = vk @ dagger(vk)
    return 0.5 * (log + dagger(log)), 0.5 * (proj + dagger(proj))


def power_on_support(a: np.ndarray, exponent: float) -> np.ndarray:
    """Spectral power of a PSD matrix, zero outside the support."""
    w, vk = _support(a)
    out = (vk * np.power(w, exponent)) @ dagger(vk)
    return 0.5 * (out + dagger(out))


def support_projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD matrix."""
    _, proj = matrix_log_on_support(a)
    return proj


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, capped at `defaults.TENSOR_DIM_CAP` rows and columns."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > defaults.TENSOR_DIM_CAP:
        raise ResourceCapExceeded(
            f"tensor product dimension {rows}x{cols} exceeds cap {defaults.TENSOR_DIM_CAP}"
        )
    return np.kron(a, b)


def direct_sum(mats) -> np.ndarray:
    """Block-diagonal complex matrix with the given blocks in order."""
    mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for m in mats]
    rows, cols = sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (trace norm)."""
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of traceless hermitian dim x dim matrices.

    Generalized Gell-Mann construction: symmetric and antisymmetric pair
    matrices plus normalized diagonal ladder matrices.
    """
    basis: list[np.ndarray] = []
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j / np.sqrt(2.0)
            m[j, i] = 1j / np.sqrt(2.0)
            basis.append(m)
    for k in range(1, dim):
        d = np.zeros(dim)
        d[:k] = 1.0
        d[k] = -float(k)
        d /= np.linalg.norm(d)
        basis.append(np.diag(d).astype(complex))
    return basis


class lazy_attribute:
    """An attribute computed from the instance at its first read and stored on it.

    `functools.cached_property` as of Python 3.12: the instance's `__dict__`
    holds the value, so later reads never reach the descriptor, and the
    first read takes no lock (before 3.12 it takes one per class).  The
    values cached here are pure functions of frozen data, so two threads
    that race on a first read store equal values.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True, eq=False)
class BlockAlgebra:
    """Finite direct sum of full matrix algebras, given by block dimensions."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) < 1 or any(d < 1 for d in self.blocks):
            raise ValidationFailure(f"invalid block dimensions {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(d) for d in self.blocks))

    @classmethod
    @functools.cache
    def full(cls, dim: int) -> "BlockAlgebra":
        """One shared instance per dimension: algebras are frozen and compared by blocks."""
        return cls((dim,))

    @classmethod
    @functools.cache
    def commutative(cls, points: int) -> "BlockAlgebra":
        """Diagonal algebra on `points` points, as all-1 blocks; one shared instance per size."""
        return cls((1,) * points)

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @lazy_attribute
    def is_commutative(self) -> bool:
        """Two or more blocks, all of size 1: a density on this algebra is diagonal.

        The one-block algebra of a 1-dimensional space is counted as a full
        algebra, so that every full-algebra input takes the dense path.
        """
        return len(self.blocks) > 1 and all(d == 1 for d in self.blocks)

    @lazy_attribute
    def _mask(self) -> np.ndarray:
        ids = np.concatenate([np.full(d, k) for k, d in enumerate(self.blocks)])
        return ids[:, None] == ids[None, :]

    def off_block_norm(self, m: np.ndarray) -> float:
        if len(self.blocks) == 1:
            return 0.0
        if self.is_commutative:  # every off-diagonal entry is off the blocks: no mask
            off = np.array(m, dtype=complex)
            np.fill_diagonal(off, 0.0)
            return float(np.linalg.norm(off))
        return float(np.linalg.norm(np.where(self._mask, 0.0, m)))

    def project(self, m: np.ndarray) -> np.ndarray:
        """Zero all entries outside the blocks."""
        if len(self.blocks) == 1:
            return m
        return np.where(self._mask, m, 0.0)
