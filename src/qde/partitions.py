"""Kraus-form positive maps, partitions of unity, and automorphisms.

Conventions.  A map carries a Kraus family of (dim_out x dim_in) matrices;
states flow dim_in -> dim_out through the predual

    rho  |->  sum_k K_k rho K_k^dag,

while observables travel the opposite way in the Heisenberg picture,

    x  |->  sum_k K_k^dag x K_k        (x is dim_out x dim_out).

A partition is a family of such maps whose unit images sum to the identity
on the dim_in side.  All maps here are completely positive and sub-unital,
which guarantees the Schwarz inequality zeta(x)^dag zeta(x) <= zeta(x^dag x).

Composition respects time order: in compose(zeta, eta) the partition zeta
acts first on states, so the composite Kraus elements are L @ K with K from
zeta and L from eta.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import DimensionMismatch, ValidationFailure
from .linalg import (
    BlockAlgebra,
    _clamp_ascending,
    _eigh,
    as_hermitian,
    clamp_psd_spectrum,
    dagger,
    frobenius,
    spectral_decompose,
    tensor,
)
from .states import StateFunctional


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Completely positive sub-unital map given by a finite Kraus family.

    `unit_image` is zeta(I) = sum K^dag K, a read-only dim_in x dim_in
    positive contraction; it is a real diagonal matrix when every Kraus
    element is exactly diagonal.
    """

    kraus: tuple[np.ndarray, ...]
    label: object = None

    def __post_init__(self):
        if len(self.kraus) == 0:
            raise ValidationFailure("empty Kraus family")
        # one read-only (count, dim_out, dim_in) stack; the stored elements are views of it
        try:
            stack = np.array(self.kraus, dtype=complex, order="C")
        except ValueError as exc:
            raise DimensionMismatch(f"Kraus elements of mixed shapes or types: {exc}") from None
        if stack.ndim != 3 or 0 in stack.shape:
            raise DimensionMismatch(
                f"Kraus elements must be nonempty matrices, got shape {stack.shape[1:]}"
            )
        if not np.isfinite(stack).all():
            raise ValidationFailure("Kraus element with non-finite entries")
        stack.setflags(write=False)
        object.__setattr__(self, "kraus", tuple(stack))
        object.__setattr__(self, "_stack", stack)
        weights = _exact_diagonal_weights(stack)
        object.__setattr__(self, "_diagonal_weights", weights)
        if weights is None:
            rows = self._rows
            s = dagger(rows) @ rows
            unit = 0.5 * (s + dagger(s))
        else:
            unit = np.diag(weights)
        unit.setflags(write=False)
        object.__setattr__(self, "unit_image", unit)
        top = float(np.linalg.eigvalsh(unit)[-1])  # ascending: the last is the largest
        if top > 1.0 + defaults.SUB_UNITALITY_TOL:
            raise ValidationFailure(f"map is not sub-unital: max eigenvalue {top:.12f}")

    @property
    def dim_in(self) -> int:
        return self._stack.shape[2]

    @property
    def dim_out(self) -> int:
        return self._stack.shape[1]

    @property
    def _rows(self) -> np.ndarray:
        """The family stacked vertically, a (count * dim_out) x dim_in view."""
        return self._stack.reshape(-1, self.dim_in)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Heisenberg action on an observable of the output algebra."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim_out, self.dim_out):
            raise DimensionMismatch(
                f"observable shape {x.shape}, expected ({self.dim_out}, {self.dim_out})"
            )
        # sum K^dag (x K) = [K_1; ...; K_r]^dag [x K_1; ...; x K_r]
        moved = (x @ self._stack).reshape(-1, self.dim_in)
        return dagger(self._rows) @ moved

    def predual(self, rho: np.ndarray) -> np.ndarray:
        """Schroedinger action on a density of the input algebra."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"density shape {rho.shape}, expected ({self.dim_in}, {self.dim_in})"
            )
        # sum (K rho) K^dag = [K_1 rho, ..., K_r rho] [K_1, ..., K_r]^dag
        moved = (self._rows @ rho).reshape(self._stack.shape)
        return _side_by_side(moved) @ dagger(_side_by_side(self._stack))

    def relabel(self, label) -> "KrausMap":
        """The same validated map under another label, sharing its read-only stack."""
        twin = copy.copy(self)
        object.__setattr__(twin, "label", label)
        return twin


def _exact_diagonal_weights(stack: np.ndarray) -> np.ndarray | None:
    """sum_k |K_k,ii|^2 when every element is square and exactly diagonal, else None.

    Exactly means every off-diagonal entry is 0.0: no tolerance, so no
    off-diagonal mass is ever dropped.  A nonzero [0, 1] or [1, 0] entry of
    the first element rules a map out before the full scan.
    """
    _, dim_out, dim_in = stack.shape
    if dim_in != dim_out:
        return None
    if dim_in > 1 and (stack[0, 0, 1] != 0 or stack[0, 1, 0] != 0):
        return None
    diag = np.diagonal(stack, axis1=1, axis2=2)
    if np.count_nonzero(stack) != np.count_nonzero(diag):
        return None
    return (diag.real**2 + diag.imag**2).sum(axis=0)


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """The (count, rows, cols) stack as one rows x (count * cols) block row."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


def _product_kraus(first: KrausMap, second: KrausMap) -> np.ndarray:
    """Kraus stack {L @ K} of first-then-second, K-major.

    Exactly diagonal factors multiply their diagonals elementwise.
    """
    if first._diagonal_weights is not None and second._diagonal_weights is not None:
        k = np.diagonal(first._stack, axis1=1, axis2=2)
        l = np.diagonal(second._stack, axis1=1, axis2=2)
        d = first.dim_in
        prod = np.zeros((len(k) * len(l), d, d), dtype=complex)
        # the diagonal of a C-ordered d x d matrix is every (d + 1)-th entry
        prod.reshape(len(prod), -1)[:, :: d + 1] = (k[:, None, :] * l[None, :, :]).reshape(-1, d)
        return prod
    prod = second._stack[None, :, :, :] @ first._stack[:, None, :, :]
    return prod.reshape(-1, second.dim_out, first.dim_in)


def _diagonal_predual(weights: np.ndarray, omega: StateFunctional) -> StateFunctional:
    """diag(weights * rho_ii) on omega's algebra: a diagonal map's image of a diagonal omega."""
    # a real diagonal is exactly hermitian, so it is not symmetrized
    out = np.diag((weights * omega.density.diagonal().real).astype(complex))
    out.setflags(write=False)
    return StateFunctional(omega.algebra, out)


def predual_apply(zeta_i: KrausMap, omega: StateFunctional) -> StateFunctional:
    """The functional omega composed with the map, as an unnormalized density.

    On an all-1-block algebra an exactly diagonal map keeps omega on that
    algebra; every other image is on the full algebra.
    """
    if omega.dim != zeta_i.dim_in:
        raise DimensionMismatch(f"state dimension {omega.dim} vs map input {zeta_i.dim_in}")
    return _image(zeta_i, omega, BlockAlgebra.full(zeta_i.dim_out))


def _image(m: KrausMap, omega: StateFunctional, full: BlockAlgebra) -> StateFunctional:
    """predual_apply with the dimensions checked; `full` is the full algebra of m's output."""
    if omega.algebra.is_commutative and m._diagonal_weights is not None:
        return _diagonal_predual(m._diagonal_weights, omega)
    return StateFunctional._trusted(m.predual(omega.density), full)


def _choi(stack: np.ndarray) -> np.ndarray:
    """Choi matrix of the predual action of a (count, dim_out, dim_in) Kraus stack.

    Hermitian up to rounding and not symmetrized: its consumers do that once.
    """
    # rows are vec(K^T); J = sum_k vec vec^dag = V^T conj(V)
    vecs = stack.transpose(0, 2, 1).reshape(len(stack), -1)
    return vecs.T @ vecs.conj()


def choi_matrix(zeta_i: KrausMap) -> np.ndarray:
    """Choi matrix of the predual action; PSD exactly when the map is CP."""
    j = _choi(zeta_i._stack)
    return 0.5 * (j + dagger(j))


def kraus_from_choi(choi: np.ndarray, dim_in: int, dim_out: int, label=None) -> KrausMap:
    """Minimal Kraus family (at most dim_in * dim_out elements) from a Choi matrix."""
    w, v = _eigh(as_hermitian(choi))
    w = _clamp_ascending(w, tol=1e-8)  # descending
    keep = w > 1e-14 * max(w[0], 1.0)
    if not keep.any():
        return KrausMap((np.zeros((dim_out, dim_in), dtype=complex),), label)
    cols = v[:, ::-1][:, keep] * np.sqrt(w[keep])
    # column c is vec(K_c^T)
    return KrausMap(cols.T.reshape(-1, dim_in, dim_out).transpose(0, 2, 1), label)


def _minimal_map(stack: np.ndarray, label) -> KrausMap:
    """The map of a Kraus stack, Choi-compressed when it has more than dim_in * dim_out elements."""
    count, dim_out, dim_in = stack.shape
    if count <= dim_in * dim_out:
        return KrausMap(stack, label)
    return kraus_from_choi(_choi(stack), dim_in, dim_out, label)


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered family of maps whose unit images sum to the identity.

    `unit_sum_residual` is the Frobenius distance of that sum from the identity.
    """

    maps: tuple[KrausMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if not self.maps:
            raise ValidationFailure("partition with no outcomes")
        d_in, d_out = self.maps[0].dim_in, self.maps[0].dim_out
        if any(m.dim_in != d_in or m.dim_out != d_out for m in self.maps):
            raise DimensionMismatch("partition maps with mixed dimensions")
        maps = self.maps
        if any(m.label is None for m in maps):
            maps = tuple(
                m if m.label is not None else m.relabel(i) for i, m in enumerate(maps)
            )
            object.__setattr__(self, "maps", maps)
        labels = [m.label for m in maps]
        if len(set(labels)) != len(labels):
            raise ValidationFailure("duplicate outcome labels")
        resid = frobenius(sum(m.unit_image for m in maps) - np.eye(d_in))
        object.__setattr__(self, "unit_sum_residual", resid)
        if resid > defaults.UNIT_SUM_TOL:
            raise ValidationFailure(f"unit images sum off identity by {resid:.3e}")

    @classmethod
    def trivial(cls, dim: int) -> "Partition":
        return cls((KrausMap((np.eye(dim, dtype=complex),), label=0),))

    @classmethod
    def proportional(cls, weights, dim: int) -> "Partition":
        """Code of scaled identity maps with the given positive weights."""
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > defaults.UNIT_SUM_TOL:
            raise ValidationFailure("proportional weights must be nonnegative and sum to 1")
        eye = np.eye(dim, dtype=complex)
        return cls(tuple(KrausMap((np.sqrt(x) * eye,), label=i) for i, x in enumerate(w)))

    @property
    def dim_in(self) -> int:
        return self.maps[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.maps[0].dim_out

    @property
    def size(self) -> int:
        return len(self.maps)

    @property
    def labels(self) -> tuple:
        return tuple(m.label for m in self.maps)

    def __iter__(self):
        return iter(self.maps)

    def total_predual(self, omega: StateFunctional) -> StateFunctional:
        """State after the total (unital) map; preserves the weight."""
        if omega.dim != self.dim_in:
            raise DimensionMismatch(f"state dimension {omega.dim} vs partition input {self.dim_in}")
        if omega.algebra.is_commutative and all(
            m._diagonal_weights is not None for m in self.maps
        ):
            return _diagonal_predual(sum(m._diagonal_weights for m in self.maps), omega)
        out = sum(m.predual(omega.density) for m in self.maps)
        return StateFunctional._trusted(out, BlockAlgebra.full(self.dim_out))

    def branch_preduals(self, omega: StateFunctional) -> list[StateFunctional]:
        """predual_apply of every outcome, in outcome order."""
        if omega.dim != self.dim_in:
            raise DimensionMismatch(f"state dimension {omega.dim} vs partition input {self.dim_in}")
        full = BlockAlgebra.full(self.dim_out)
        return [_image(m, omega, full) for m in self.maps]


def compose(zeta: Partition, eta: Partition) -> Partition:
    """Joint partition with zeta acting first in time.

    Outcome (i, j) has Kraus family {L @ K}, replaced by a minimal family
    when it has more than dim_in * dim_out elements; its predual applies
    zeta_i then eta_j to states.  Each composite map is built once.
    """
    if eta.dim_in != zeta.dim_out:
        raise DimensionMismatch(
            f"cannot compose: second partition input {eta.dim_in} vs first output {zeta.dim_out}"
        )
    maps = tuple(
        _minimal_map(_product_kraus(mi, mj), (mi.label, mj.label))
        for mi in zeta.maps
        for mj in eta.maps
    )
    return Partition(maps)


def tensor_partition(zeta1: Partition, zeta2: Partition) -> Partition:
    """Product measurement; outcome labels are pairs, Kraus factors Kronecker-multiplied."""
    maps = []
    for m1 in zeta1.maps:
        for m2 in zeta2.maps:
            kraus = tuple(tensor(k1, k2) for k1 in m1.kraus for k2 in m2.kraus)
            maps.append(KrausMap(kraus, label=(m1.label, m2.label)))
    return Partition(tuple(maps))


def partition_power(zeta: Partition, n: int) -> Partition:
    """n-fold tensor power with word labels."""
    out = zeta
    for _ in range(n - 1):
        out = tensor_partition(out, zeta)
    return out


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Unitary conjugation x -> u x u^dag on a full matrix algebra."""

    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        dev = frobenius(dagger(u) @ u - np.eye(u.shape[0]))
        if dev > defaults.UNITARITY_TOL * u.shape[0]:
            raise ValidationFailure(f"matrix is not unitary: residual {dev:.3e}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    @classmethod
    def identity(cls, dim: int) -> "Automorphism":
        return cls(np.eye(dim, dtype=complex))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.unitary @ x @ dagger(self.unitary)

    def predual(self, rho: np.ndarray) -> np.ndarray:
        # state transform of x -> u x u^dag is rho -> u^dag rho u
        return dagger(self.unitary) @ rho @ self.unitary

    def inverse(self) -> "Automorphism":
        return Automorphism(dagger(self.unitary))

    def power(self, n: int) -> "Automorphism":
        if n == 0:
            return Automorphism.identity(self.dim)
        u = self.unitary if n > 0 else dagger(self.unitary)
        return Automorphism(np.linalg.matrix_power(u, abs(n)))


def conjugate(theta: Automorphism, zeta: Partition) -> Partition:
    """The transported partition theta . zeta_i . theta^{-1}; Kraus K -> u K u^dag."""
    if theta.dim != zeta.dim_in or theta.dim != zeta.dim_out:
        raise DimensionMismatch("automorphism dimension does not match the partition")
    u = theta.unitary
    u_dag = dagger(u)
    maps = tuple(KrausMap(u @ m._stack @ u_dag, label=m.label) for m in zeta.maps)
    return Partition(maps)


def vn_partition(projectors) -> Partition:
    """Projective partition: each outcome acts as x -> P x P."""
    projs = [as_hermitian(p, tol=defaults.PROJECTOR_TOL) for p in projectors]
    if not projs:
        raise ValidationFailure("empty projector family")
    dim = projs[0].shape[0]
    for p in projs:
        if frobenius(p @ p - p) > defaults.PROJECTOR_TOL:
            raise ValidationFailure("input is not an orthogonal projector")
    for a, b in itertools.combinations(projs, 2):
        if frobenius(a @ b) > defaults.PROJECTOR_TOL:
            raise ValidationFailure("projectors are not mutually orthogonal")
    if frobenius(sum(projs) - np.eye(dim)) > defaults.PROJECTOR_TOL:
        raise ValidationFailure("projectors do not sum to the identity")
    return Partition(tuple(KrausMap((p,), label=i) for i, p in enumerate(projs)))


def pinching_invariant_partition(projectors, phi: StateFunctional) -> Partition:
    """Measure-and-reprepare partition that leaves phi invariant.

    For projectors commuting with the density of phi, outcome i acts on
    observables as x -> phi(P_i)^{-1} phi(P_i x P_i) P_i.  The predual sends
    rho' to tr(P_i rho') sigma_i with sigma_i the normalized restriction of
    phi to the block, so phi itself is reproduced exactly.  Blocks where phi
    vanishes are completed with the maximally mixed block state to keep the
    unit sum.
    """
    rho = phi.density
    projs = [as_hermitian(p, tol=defaults.PROJECTOR_TOL) for p in projectors]
    dim = projs[0].shape[0]
    for p in projs:
        if frobenius(p @ p - p) > defaults.PROJECTOR_TOL:
            raise ValidationFailure("input is not an orthogonal projector")
        if frobenius(rho @ p - p @ rho) > defaults.INVARIANCE_TOL:
            raise ValidationFailure(
                "projector does not commute with the state; "
                "only the pinching conditional expectation is supported"
            )
    if frobenius(sum(projs) - np.eye(dim)) > defaults.PROJECTOR_TOL:
        raise ValidationFailure("projectors do not sum to the identity")

    maps = []
    for label, p in enumerate(projs):
        weight = float(np.real(np.trace(rho @ p)))
        if weight > defaults.WEIGHT_FLOOR:
            sigma = (p @ rho @ p) / weight
        else:
            sigma = p / np.real(np.trace(p))
        s_vals, s_vecs = spectral_decompose(sigma)
        s_vals = clamp_psd_spectrum(s_vals)
        p_vals, p_vecs = spectral_decompose(p)
        block = [p_vecs[:, j] for j in range(dim) if p_vals[j] > 0.5]
        kraus = []
        for val, vec in zip(s_vals, s_vecs.T):
            if val <= 1e-14:
                continue
            for w in block:
                kraus.append(np.sqrt(val) * np.outer(vec, w.conj()))
        maps.append(KrausMap(tuple(kraus), label=label))
    return Partition(tuple(maps))


@dataclass(frozen=True)
class PartitionReport:
    """Validation summary for a partition of unity."""

    unit_sum_residual: float
    choi_min_eigenvalues: tuple[float, ...]
    sub_unitality_margins: tuple[float, ...]
    schwartz_min: float
    samples: int

    @property
    def passed(self) -> bool:
        return (
            self.unit_sum_residual <= defaults.UNIT_SUM_TOL
            and min(self.choi_min_eigenvalues) >= -defaults.CHOI_POSITIVITY_TOL
            and min(self.sub_unitality_margins) >= -defaults.SUB_UNITALITY_TOL
            and self.schwartz_min >= -1e-8
        )


def validate_partition(zeta: Partition, samples: int = 50) -> PartitionReport:
    """Full validation report: unit sum, Choi positivity, sub-unitality, Schwarz check.

    The Schwarz check samples random complex x and records the minimum
    eigenvalue of zeta_i(x^dag x) - zeta_i(x)^dag zeta_i(x); complete
    positivity makes this a redundant guard, not the primary validator.
    """
    choi_mins = []
    margins = []
    for m in zeta.maps:
        choi_mins.append(float(np.min(np.linalg.eigvalsh(choi_matrix(m)))))
        margins.append(1.0 - float(np.max(np.linalg.eigvalsh(m.unit_image))))
    rng = np.random.default_rng(0)
    d = zeta.dim_out
    schwartz = np.inf
    for _ in range(samples):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for m in zeta.maps:
            gap = m.apply(dagger(x) @ x) - dagger(m.apply(x)) @ m.apply(x)
            schwartz = min(schwartz, float(np.min(np.linalg.eigvalsh(as_hermitian(gap, tol=1e-8)))))
    return PartitionReport(
        unit_sum_residual=zeta.unit_sum_residual,
        choi_min_eigenvalues=tuple(choi_mins),
        sub_unitality_margins=tuple(margins),
        schwartz_min=schwartz,
        samples=samples,
    )
