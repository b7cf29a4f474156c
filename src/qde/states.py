"""Positive functionals and relative entropy.

A functional on a block algebra is carried by a positive semidefinite density
matrix; sub-normalized functionals (weight below 1) are first class.  The
relative entropy of densities rho and sigma is the trace formula

    S(omega, phi) = tr(rho (ln rho - ln sigma)),

evaluated on the support of sigma and equal to +inf when the support of rho
is not contained in it.  For sub-normalized omega the value may be negative;
the scaling identity S(c*omega, phi) = c ln c + c S(omega, phi) holds with no
normalization correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import DimensionMismatch, ValidationFailure
from .linalg import (
    BlockAlgebra,
    _clamp_ascending,
    as_hermitian,
    assert_finite,
    clamp_psd_spectrum,
    dagger,
    frobenius,
    lazy_attribute,
    spectral_decompose,
    tensor,
    trace_norm,
)


@dataclass(frozen=True, eq=False, init=False)
class StateFunctional:
    """Positive functional held as a (possibly sub-normalized) density matrix.

    A functional on an all-1-block algebra that `from_density` or qde's own
    operations build holds only its read-only complex diagonal; its dense
    `density` is built once, on first read.
    """

    algebra: BlockAlgebra

    def __init__(self, algebra: BlockAlgebra, density=None, *, diagonal=None):
        own = vars(self)
        own["algebra"] = algebra
        own["_diagonal"] = diagonal  # the held diagonal, or None
        if diagonal is None:
            own.update(density=density, dim=density.shape[0])
        else:
            own["dim"] = diagonal.shape[0]

    # a dense functional stores its density, which shadows this descriptor;
    # a __getattr__ would slow every attribute read instead
    @lazy_attribute
    def density(self) -> np.ndarray:
        """The read-only dense density matrix."""
        density = np.diag(self._diagonal)
        density.setflags(write=False)
        return density

    def _entries(self) -> np.ndarray:
        """The complex diagonal of the density, held or read from the dense form."""
        diagonal = self._diagonal
        return self.density.diagonal() if diagonal is None else diagonal

    @classmethod
    def from_density(
        cls,
        density: np.ndarray,
        algebra: BlockAlgebra | None = None,
        *,
        check_positive: bool = True,
    ) -> "StateFunctional":
        density = as_hermitian(density)
        if algebra is None:
            algebra = BlockAlgebra.full(density.shape[0])
        if algebra.dim != density.shape[0]:
            raise DimensionMismatch(
                f"density of dimension {density.shape[0]} on algebra of dimension {algebra.dim}"
            )
        off = algebra.off_block_norm(density)
        if off > defaults.HERMITICITY_TOL:
            raise ValidationFailure(f"density has off-block mass {off:.3e}")
        if algebra.is_commutative:
            # on an all-1-block algebra the projected density is its diagonal
            diagonal = density.diagonal().copy()
            if check_positive:
                clamp_psd_spectrum(diagonal.real)
            diagonal.setflags(write=False)
            return cls(algebra, diagonal=diagonal)
        density = algebra.project(density)
        if check_positive:
            clamp_psd_spectrum(np.linalg.eigvalsh(density))
        density = density.copy()
        density.setflags(write=False)
        return cls(algebra, density)

    @classmethod
    def commutative(cls, weights) -> "StateFunctional":
        """diag(weights) on the commutative algebra of len(weights) points, held as
        its diagonal: `from_density` of that matrix, with the same finiteness
        and positivity checks, without building it."""
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise DimensionMismatch(f"expected a vector of weights, got shape {weights.shape}")
        algebra = BlockAlgebra.commutative(weights.size)
        if not algebra.is_commutative:  # one point: the full algebra's dense path
            return cls.from_density(np.diag(weights).astype(complex), algebra)
        assert_finite(weights)
        clamp_psd_spectrum(weights)
        diagonal = weights.astype(complex)
        diagonal.setflags(write=False)
        return cls(algebra, diagonal=diagonal)

    @classmethod
    def _trusted(cls, density: np.ndarray, algebra: BlockAlgebra) -> "StateFunctional":
        # Fast path for densities that are PSD by construction (predual images).
        density = 0.5 * (density + dagger(density))
        density.setflags(write=False)
        return cls(algebra, density)

    @classmethod
    def diagonal(cls, probs) -> "StateFunctional":
        return cls.from_density(np.diag(np.asarray(probs, dtype=complex)))

    @classmethod
    def pure(cls, vector) -> "StateFunctional":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls.from_density(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "StateFunctional":
        return cls.from_density(np.eye(dim, dtype=complex) / dim)

    @lazy_attribute
    def weight(self) -> float:
        diagonal = self._diagonal
        return float(self.density.trace().real if diagonal is None else diagonal.sum().real)

    def require_normalized(self, what: str = "state") -> None:
        if not abs(self.weight - 1.0) <= 1e-8:  # a NaN weight fails too
            raise ValidationFailure(f"{what} has weight {self.weight:.12f}, expected 1")

    def scale(self, factor: float) -> "StateFunctional":
        """The functional times a finite factor >= 0.

        A real multiple of an exactly hermitian density is exactly hermitian,
        so the product is not symmetrized again.
        """
        if not 0.0 <= factor < math.inf:  # a NaN factor fails too
            raise ValidationFailure(f"scaling factor {factor} outside [0, inf)")
        if self._diagonal is not None:
            diagonal = factor * self._diagonal
            diagonal.setflags(write=False)
            return StateFunctional(self.algebra, diagonal=diagonal)
        density = factor * self.density
        density.setflags(write=False)
        return StateFunctional(self.algebra, density)

    def evaluate(self, observable: np.ndarray) -> float:
        """phi(x) = tr(rho x) for hermitian x."""
        x = np.asarray(observable, dtype=complex)
        if x.shape != self.density.shape:
            raise DimensionMismatch(
                f"observable shape {x.shape} vs density shape {self.density.shape}"
            )
        return float(np.real(np.trace(self.density @ x)))


def _common_algebra(parts) -> BlockAlgebra:
    """The algebra every operand shares, or the full algebra when they differ."""
    algebra = parts[0].algebra
    if all(part.algebra.blocks == algebra.blocks for part in parts[1:]):
        return algebra
    return BlockAlgebra.full(parts[0].dim)


def _held(parts, algebra: BlockAlgebra) -> bool:
    """Whether every operand holds its diagonal on the shared commutative algebra."""
    return algebra.is_commutative and all(part._diagonal is not None for part in parts)


def _trusted_diagonal(diagonal: np.ndarray, algebra: BlockAlgebra) -> StateFunctional:
    """`StateFunctional._trusted` of diag(diagonal), held as its diagonal."""
    diagonal = 0.5 * (diagonal + diagonal.conj())
    diagonal.setflags(write=False)
    return StateFunctional(algebra, diagonal=diagonal)


def total_functional(parts) -> StateFunctional:
    """The sum of a nonempty family of functionals, built as one functional."""
    parts = list(parts)
    if not parts:
        raise ValidationFailure("empty decomposition")
    if any(part.dim != parts[0].dim for part in parts):
        raise DimensionMismatch("adding functionals of different dimension")
    algebra = _common_algebra(parts)
    if _held(parts, algebra):
        diagonals = [part._diagonal for part in parts]
        return _trusted_diagonal(sum(diagonals[1:], diagonals[0]), algebra)
    densities = [part.density for part in parts]
    return StateFunctional._trusted(sum(densities[1:], densities[0]), algebra)


def mix(a: StateFunctional, b: StateFunctional, lam: float) -> StateFunctional:
    """Convex combination (1-lam)*a + lam*b, for 0 <= lam <= 1."""
    if not 0.0 <= lam <= 1.0:  # a NaN weight fails too
        raise ValidationFailure(f"mixing weight {lam} outside [0, 1]")
    if a.dim != b.dim:
        raise DimensionMismatch("mixing functionals of different dimension")
    algebra = _common_algebra((a, b))
    if _held((a, b), algebra):
        return _trusted_diagonal((1.0 - lam) * a._diagonal + lam * b._diagonal, algebra)
    return StateFunctional._trusted((1.0 - lam) * a.density + lam * b.density, algebra)


def product_state(a: StateFunctional, b: StateFunctional) -> StateFunctional:
    """Tensor product of functionals on full matrix algebras."""
    if len(a.algebra.blocks) != 1 or len(b.algebra.blocks) != 1:
        raise ValidationFailure("product states are supported on full matrix algebras only")
    return StateFunctional._trusted(tensor(a.density, b.density), BlockAlgebra.full(a.dim * b.dim))


def von_neumann_entropy(phi: StateFunctional) -> float:
    """S(phi) = -tr(rho ln rho) for a normalized state, in nats."""
    phi.require_normalized()
    # a held diagonal is its own spectrum; sorted, it is what eigvalsh returns
    diagonal = phi._diagonal
    w = np.sort(diagonal.real) if diagonal is not None else np.linalg.eigvalsh(phi.density)
    w = clamp_psd_spectrum(w)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


@dataclass(frozen=True)
class DivergenceReport:
    """Relative entropy value plus the support-decision margins."""

    value: float
    off_support_mass: float
    smallest_retained_reference: float
    smallest_retained_argument: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


class DivergenceEngine:
    """Relative entropies against a fixed reference, eigendecomposed once.

    The support of the reference keeps eigenvalues above SUPPORT_CUTOFF * max;
    argument mass outside it beyond the leak tolerance makes the value +inf.
    A functional on an all-1-block algebra is diagonal: its spectrum is its
    diagonal and the identity is its eigenbasis, so it needs no eigensolve.
    """

    def __init__(self, phi: StateFunctional):
        self.phi = phi
        self.degenerate = phi.weight <= defaults.WEIGHT_FLOOR
        if self.degenerate:
            return
        if phi.algebra.is_commutative:
            q = clamp_psd_spectrum(phi._entries().real)
            top = q.max()
            self._basis = None
        else:
            q, v = spectral_decompose(phi.density)
            q = clamp_psd_spectrum(q)
            top = q[0]
            self._basis = v
            self._basis_conj = v.conj()
        self._keep = q > defaults.SUPPORT_CUTOFF * top
        self._drop = None if self._keep.all() else ~self._keep
        self._log_q = np.log(q[self._keep])
        self.smallest_retained = float(q[self._keep].min())

    def report(self, omega: StateFunctional) -> DivergenceReport:
        if omega.dim != self.phi.dim:
            raise DimensionMismatch(f"dimensions {omega.dim} vs {self.phi.dim}")
        weight = omega.weight
        if weight <= defaults.WEIGHT_FLOOR:
            return DivergenceReport(0.0, 0.0, 0.0, 0.0)
        if self.degenerate:
            return DivergenceReport(math.inf, weight, 0.0, 0.0)
        commutative = omega.algebra.is_commutative
        if commutative:
            p = clamp_psd_spectrum(omega._entries().real)
            top = float(p.max())
        else:
            p = _clamp_ascending(np.linalg.eigvalsh(omega.density))
            top = float(p[0])
        kept_p = p[p > defaults.SUPPORT_CUTOFF * top]
        # a descending dense spectrum keeps a prefix, whose last entry is its smallest
        smallest_p = float(kept_p.min() if commutative else kept_p[-1]) if kept_p.size else 0.0

        # the argument in the eigenbasis of the reference, Re diag(V^dag rho V):
        # one GEMM for rho V, then a column-wise product-sum with conj(V);
        # a diagonal reference has V = I
        if self._basis is None:
            m = np.maximum(omega._entries().real, 0.0)
        else:
            rho = omega.density
            m = np.maximum((self._basis_conj * (rho @ self._basis)).sum(axis=0).real, 0.0)
        # a reference that keeps its whole spectrum leaves no mass off its support
        off_mass = 0.0 if self._drop is None else float(m[self._drop].sum())
        leak_tol = 16.0 * omega.dim * defaults.SUPPORT_CUTOFF * max(1.0, top)
        if off_mass > leak_tol:
            return DivergenceReport(math.inf, off_mass, self.smallest_retained, smallest_p)

        term_self = float((kept_p * np.log(kept_p)).sum())
        term_cross = float(np.dot(m[self._keep], self._log_q))
        return DivergenceReport(
            term_self - term_cross, off_mass, self.smallest_retained, smallest_p
        )

    def value(self, omega: StateFunctional) -> float:
        return self.report(omega).value


def relative_entropy_report(omega: StateFunctional, phi: StateFunctional) -> DivergenceReport:
    """Trace-formula relative entropy of possibly sub-normalized functionals."""
    return DivergenceEngine(phi).report(omega)


def relative_entropy(omega: StateFunctional, phi: StateFunctional) -> float:
    return relative_entropy_report(omega, phi).value


def trace_distance(a: StateFunctional, b: StateFunctional) -> float:
    """Trace norm of the density difference."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions {a.dim} vs {b.dim}")
    return trace_norm(a.density - b.density)


def donald_residual(parts, phi: StateFunctional) -> float:
    """Deviation from the split identity S(w,phi) + sum S(w_i,w) = sum S(w_i,phi).

    `parts` is a family of positive functionals, w their sum.  Returns +inf
    when any of the three quantities is infinite.
    """
    parts = list(parts)
    total = total_functional(parts)
    s_total = relative_entropy(total, phi)
    s_inner = sum(relative_entropy(part, total) for part in parts)
    s_outer = sum(relative_entropy(part, phi) for part in parts)
    if not all(map(math.isfinite, (s_total, s_inner, s_outer))):
        return math.inf
    return abs(s_total + s_inner - s_outer)


def decomposition_entropy_gap(parts, phi: StateFunctional) -> float:
    """S(phi) minus the average divergence of the normalized parts from phi.

    Requires the parts to sum to phi; the gap equals the entropy balance
    sum_i p_i S(part_i / p_i) and is nonnegative, zero exactly when every
    normalized part is pure.
    """
    parts = list(parts)
    if not parts:
        raise ValidationFailure("empty decomposition")
    phi.require_normalized()
    if any(part.dim != phi.dim for part in parts):
        raise DimensionMismatch(f"a part is not of the state's dimension {phi.dim}")
    total = sum(part.density for part in parts)
    mismatch = frobenius(total - phi.density)
    if mismatch > 1e-9:
        raise ValidationFailure(f"parts do not sum to the state: residual {mismatch:.3e}")
    avg = 0.0
    for part in parts:
        p = part.weight
        if p <= defaults.WEIGHT_FLOOR:
            continue
        avg += p * relative_entropy(part.scale(1.0 / p), phi)
    return von_neumann_entropy(phi) - avg
