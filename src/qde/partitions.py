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
    assert_finite,
    clamp_psd_spectrum,
    dagger,
    frobenius,
    lazy_attribute,
    spectral_decompose,
    tensor,
)
from .states import StateFunctional, total_functional


class _Diagonals:
    """Exactly diagonal Kraus elements given by their (count, d) complex
    diagonals; `KrausMap` takes them from qde's own builders only."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows


@dataclass(frozen=True, eq=False)
class KrausMap:
    """Completely positive sub-unital map given by a finite Kraus family.

    `unit_image` is zeta(I) = sum K^dag K, a read-only dim_in x dim_in
    positive contraction; it is a real diagonal matrix when every Kraus
    element is exactly diagonal.  The maps that `compose` and
    `embed_diagonal` build from exactly diagonal factors hold only their
    (count, d) diagonals; their dense stack, the `unit_image` of every
    exactly diagonal map, and the `kraus` tuple of read-only views of the
    stack of every map, are built on first read, once.
    """

    kraus: tuple[np.ndarray, ...]
    label: object = None

    def __post_init__(self):
        # the caller's family is not kept: `kraus` is read back as views of the read-only stack
        kraus = vars(self).pop("kraus")
        if type(kraus) is _Diagonals:
            diagonals, stack = kraus.rows, None
        else:
            if len(kraus) == 0:
                raise ValidationFailure("empty Kraus family")
            # one read-only (count, dim_out, dim_in) stack
            try:
                stack = np.array(kraus, dtype=complex, order="C")
            except ValueError as exc:
                raise DimensionMismatch(f"Kraus elements of mixed shapes or types: {exc}") from None
            if stack.ndim != 3 or 0 in stack.shape:
                raise DimensionMismatch(
                    f"Kraus elements must be nonempty matrices, got shape {stack.shape[1:]}"
                )
            diagonals = _exact_diagonals(stack)
        weights = None if diagonals is None else _squares(diagonals)
        (unit,) = _unit_images([diagonals if stack is None else stack], [weights])
        self._seal(stack, diagonals, weights, unit)

    def _seal(self, stack, diagonals, weights, unit) -> None:
        """Stores the validated map; a diagonal map keeps no dense unit image."""
        own = vars(self)
        if stack is None:
            count, d = diagonals.shape
            own["_shape"] = (count, d, d)
        else:
            stack.setflags(write=False)
            own.update(_stack=stack, _shape=stack.shape)
        if diagonals is None:
            unit.setflags(write=False)
            own["unit_image"] = unit
        else:
            diagonals.setflags(write=False)
            weights.setflags(write=False)
        own.update(_diagonals=diagonals, _diagonal_weights=weights)

    # dense forms built on first read: the Kraus stack of a map held by its
    # diagonals and the unit image of an exactly diagonal map; the other maps
    # store them at construction, which shadows these descriptors
    @lazy_attribute
    def _stack(self) -> np.ndarray:
        stack = _dense(self._diagonals)
        stack.setflags(write=False)
        return stack

    @lazy_attribute
    def unit_image(self) -> np.ndarray:
        unit = np.diag(self._diagonal_weights)
        unit.setflags(write=False)
        return unit

    @classmethod
    def _stacked(cls, stacks, labels) -> list["KrausMap"]:
        """Maps of C-ordered complex Kraus stacks, validated together; seals the stacks in place."""
        diagonals = [_exact_diagonals(stack) for stack in stacks]
        weights = [None if diag is None else _squares(diag) for diag in diagonals]
        maps = [object.__new__(cls) for _ in stacks]
        for t, unit in enumerate(_unit_images(stacks, weights)):
            vars(maps[t])["label"] = labels[t]
            maps[t]._seal(stacks[t], diagonals[t], weights[t], unit)
        return maps

    @property
    def dim_in(self) -> int:
        return self._shape[2]

    @property
    def dim_out(self) -> int:
        return self._shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Heisenberg action on an observable of the output algebra."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim_out, self.dim_out):
            raise DimensionMismatch(
                f"observable shape {x.shape}, expected ({self.dim_out}, {self.dim_out})"
            )
        # sum K^dag (x K) = [K_1; ...; K_r]^dag [x K_1; ...; x K_r]
        moved = (x @ self._stack).reshape(-1, self.dim_in)
        return dagger(self._stack.reshape(-1, self.dim_in)) @ moved

    def predual(self, rho: np.ndarray) -> np.ndarray:
        """Schroedinger action on a density of the input algebra."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"density shape {rho.shape}, expected ({self.dim_in}, {self.dim_in})"
            )
        return _predual_products(self._stack, rho)

    def relabel(self, label) -> "KrausMap":
        """The same validated map under another label, sharing its read-only arrays."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self), label=label)
        return twin


# `kraus` is a dataclass field, so its descriptor is set on the class only
# after the decorator has read the class body
KrausMap.kraus = lazy_attribute(lambda self: tuple(self._stack))
KrausMap.kraus.__set_name__(KrausMap, "kraus")


def _exact_diagonals(stack: np.ndarray) -> np.ndarray | None:
    """The (count, d) diagonals, a view, when every element is square and exactly diagonal.

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
    return diag


def _squares(diagonals: np.ndarray) -> np.ndarray:
    """sum_k |K_k,ii|^2 of (count, d) diagonals: the diagonal of the unit image."""
    return (diagonals.real**2 + diagonals.imag**2).sum(axis=0)


def _dense(diagonals: np.ndarray) -> np.ndarray:
    """The (count, d, d) stack of diag(row) for (count, d) diagonals."""
    count, d = diagonals.shape
    stack = np.zeros((count, d, d), dtype=complex)
    # the diagonal of a C-ordered d x d matrix is every (d + 1)-th entry
    stack.reshape(count, -1)[:, :: d + 1] = diagonals
    return stack


_STACK_BYTES = 1 << 17  # Kraus bytes per batch: larger batches add memory, not speed


def _gram(rows: np.ndarray) -> np.ndarray:
    """Symmetrized rows^dag rows of (..., count * dim_out, dim_in) stacked Kraus rows."""
    prod = np.swapaxes(rows.conj(), -1, -2) @ rows
    return 0.5 * (prod + np.swapaxes(prod.conj(), -1, -2))


def _unit_images(stacks, weights) -> list[np.ndarray | None]:
    """Dense unit images sum_k K_k^dag K_k of finite Kraus stacks, checked sub-unital.

    A stack is (count, dim_out, dim_in), or the (count, d) diagonals of an
    exactly diagonal map.  A diagonal map (`weights` entry not None) gets
    None: its image diag(weights) is the direct sum of the 1 x 1 blocks
    [w_i], so its spectrum is one eigvalsh of the (d, 1, 1) stack
    w[:, None, None], O(d) work with no d x d matrix built.  The top of that
    spectrum is weights.max(), a closed form that would drop the call; it
    waits on ROADMAP item 1, since qdebench/selfcheck.py pins one eigensolve
    per single-map build.  The other maps take one batched product per Kraus
    count and one eigvalsh of all their images.
    """
    if not all(np.isfinite(stack).all() for stack in stacks):
        raise ValidationFailure("Kraus element with non-finite entries")
    units = [None] * len(stacks)
    by_count: dict[int, list[int]] = {}
    for t in (t for t, w in enumerate(weights) if w is None):
        by_count.setdefault(len(stacks[t]), []).append(t)
    for batch in by_count.values():
        rows = np.array([stacks[t] for t in batch]).reshape(len(batch), -1, stacks[0].shape[2])
        for t, unit in zip(batch, _gram(rows)):
            units[t] = unit
    diagonal = [w for w in weights if w is not None]
    dense = [unit for unit in units if unit is not None]
    tops = []  # one eigvalsh per kind present
    if diagonal:
        blocks = diagonal[0] if len(diagonal) == 1 else np.concatenate(diagonal)
        tops.append(np.linalg.eigvalsh(blocks[:, None, None]).max())
    if dense:
        spectra = np.linalg.eigvalsh(dense[0] if len(dense) == 1 else np.array(dense))
        tops.append(spectra[-1] if spectra.ndim == 1 else spectra[:, -1].max())  # ascending
    top = float(tops[0] if len(tops) == 1 else np.maximum(*tops))  # np.maximum keeps a NaN
    # not `top > bound`: a NaN spectrum, from an overflowing image, fails too
    if not top <= 1.0 + defaults.SUB_UNITALITY_TOL:
        raise ValidationFailure(f"map is not sub-unital: max eigenvalue {top:.12f}")
    return units


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """The (..., count, rows, cols) stacks as (..., rows, count * cols) block rows."""
    return np.swapaxes(stack, -3, -2).reshape(*stack.shape[:-3], stack.shape[-2], -1)


def _predual_products(stacks: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag for each (..., count, dim_out, dim_in) Kraus stack, unsymmetrized."""
    # sum (K rho) K^dag = [K_1 rho, ..., K_r rho] [K_1, ..., K_r]^dag
    moved = (stacks.reshape(*stacks.shape[:-3], -1, stacks.shape[-1]) @ rho).reshape(stacks.shape)
    return _side_by_side(moved) @ np.swapaxes(_side_by_side(stacks).conj(), -1, -2)


def _product_diagonals(first: KrausMap, second: KrausMap) -> np.ndarray:
    """(count, d) diagonals of {L @ K}, K-major, for two exactly diagonal factors."""
    k, l = first._diagonals, second._diagonals
    return (k[:, None, :] * l[None, :, :]).reshape(-1, first.dim_in)


def _diagonal_predual(weights: np.ndarray, omega: StateFunctional) -> StateFunctional:
    """diag(weights * rho_ii) on omega's algebra, held as its diagonal: a
    diagonal map's image of a diagonal omega."""
    # a real diagonal is exactly hermitian, so it is not symmetrized
    out = (weights * omega._entries().real).astype(complex)
    out.setflags(write=False)
    return StateFunctional(omega.algebra, out)


def _images(maps, omega: StateFunctional) -> list[StateFunctional]:
    """The predual image of omega under each map, in order.

    On an all-1-block algebra an exactly diagonal map keeps omega on that
    algebra as a held diagonal; every other image is a dense density on the
    full algebra, batched by Kraus count: one product and one symmetrization
    per batch.
    """
    dim_in, dim_out = maps[0].dim_in, maps[0].dim_out
    out, keys = [None] * len(maps), []
    for t, m in enumerate(maps):
        on_diagonal = omega.algebra.is_commutative and m._diagonal_weights is not None
        if on_diagonal:
            out[t] = _diagonal_predual(m._diagonal_weights, omega)
        keys.append(None if on_diagonal else (m._shape[0],))
    full = BlockAlgebra.full(dim_out)
    for batch in _batches(keys, dim_in * dim_out):
        dens = _predual_products(np.array([maps[t]._stack for t in batch]), omega.density)
        dens = 0.5 * (dens + dens.conj().swapaxes(1, 2))
        dens.setflags(write=False)
        for t, density in zip(batch, dens):
            out[t] = StateFunctional(full, density)
    return out


def predual_apply(zeta_i: KrausMap, omega: StateFunctional) -> StateFunctional:
    """The functional omega composed with the map, as an unnormalized density."""
    if omega.dim != zeta_i.dim_in:
        raise DimensionMismatch(f"state dimension {omega.dim} vs map input {zeta_i.dim_in}")
    return _images((zeta_i,), omega)[0]


def _choi(stacks: np.ndarray) -> np.ndarray:
    """Choi matrices of the predual actions of (m, count, dim_out, dim_in) Kraus stacks.

    Hermitian up to rounding and not symmetrized: their consumers do that once.
    """
    # rows are vec(K^T); J = sum_k vec vec^dag = V^T conj(V)
    vecs = stacks.transpose(0, 1, 3, 2).reshape(*stacks.shape[:2], -1)
    return vecs.transpose(0, 2, 1) @ vecs.conj()


def choi_matrix(zeta_i: KrausMap) -> np.ndarray:
    """Choi matrix of the predual action; PSD exactly when the map is CP."""
    j = _choi(zeta_i._stack[None])[0]
    return 0.5 * (j + dagger(j))


def _certified_cholesky(chois: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors L (J = L L^dag) of a hermitian (m, n, n) stack, and the
    mask of the matrices whose factor certifies full rank.

    1 / ||L^-1||_F^2 is a lower bound on lambda_min(J); a factor is certified
    when that bound exceeds 1e-12 max(tr J, 1), 100 times the margin by which
    the eigh keep rule of `kraus_from_choi` would keep all n eigenvalues.  A
    stack that Cholesky rejects is retried one matrix at a time, so each
    factor and decision depends on its own matrix only.
    """
    try:
        low = np.linalg.cholesky(chois)
        inv = np.linalg.inv(low)
    except np.linalg.LinAlgError:
        if len(chois) == 1:
            return chois, np.zeros(1, dtype=bool)  # no factor: the eigh route
        parts = [_certified_cholesky(j[None]) for j in chois]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    with np.errstate(over="ignore"):  # an overflowing inverse certifies nothing
        norms = np.add.reduce(inv.real**2 + inv.imag**2, axis=(1, 2))
    traces = np.trace(chois, axis1=1, axis2=2).real
    return low, 1.0 / norms > 1e-12 * np.maximum(traces, 1.0)


def _kraus_stacks(cols: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """(m, width, dim_out, dim_in) C-ordered Kraus stacks whose element c is
    given by column c of (m, n, width) `cols` as vec(K_c^T)."""
    m, _, width = cols.shape
    return np.ascontiguousarray(
        cols.transpose(0, 2, 1).reshape(m, width, dim_in, dim_out).transpose(0, 1, 3, 2)
    )


def kraus_from_choi(chois, dim_in: int, dim_out: int, labels) -> tuple[KrausMap, ...]:
    """Minimal Kraus families (at most dim_in * dim_out elements) of an (m, n, n) Choi stack.

    n must be dim_in * dim_out; `labels` holds the m labels of the maps.  A
    Choi matrix certified full rank by `_certified_cholesky` gives the n
    columns of its Cholesky factor; any other takes the eigh route, which
    clamps the spectrum and keeps the eigenvalues above 1e-14 max(w_0, 1).
    """
    chois = np.asarray(chois, dtype=complex)
    if min(dim_in, dim_out) < 1:
        raise DimensionMismatch(f"Choi dimensions must be positive, got {dim_in} and {dim_out}")
    n = dim_in * dim_out
    if chois.ndim != 3 or not 0 < len(chois) == len(labels) or chois.shape[1:] != (n, n):
        raise DimensionMismatch(f"{len(labels)} labels for shape {chois.shape}, need (m, {n}, {n})")
    assert_finite(chois, "Choi matrix")
    flipped = chois.conj().transpose(0, 2, 1)
    dev = np.abs(chois - flipped).max()
    if dev > defaults.HERMITICITY_TOL:
        raise ValidationFailure(f"Choi matrix is not hermitian: max asymmetry {dev:.3e}")
    sym = 0.5 * (chois + flipped)
    low, certified = _certified_cholesky(sym)
    stacks = [None] * len(sym)
    chosen = np.flatnonzero(certified)
    # column c of L is vec(K_c^T): all n elements, as eigh would keep
    for t, stack in zip(chosen.tolist(), _kraus_stacks(low[chosen], dim_in, dim_out)):
        stacks[t] = stack
    rest = np.flatnonzero(~certified)
    if len(rest):
        w, v = _eigh(sym[rest])
        w = _clamp_ascending(w, tol=1e-8)  # descending
        # the kept eigenvalues of each map are a prefix of its descending spectrum
        counts = np.count_nonzero(w > 1e-14 * np.maximum(w[:, :1], 1.0), axis=1)
        width = max(1, int(counts.max()))
        # one slice, scaling and copy cuts every map's elements
        cols = v[:, :, : -width - 1 : -1] * np.sqrt(w[:, None, :width])
        elements = _kraus_stacks(cols, dim_in, dim_out)
        elements[counts == 0] = 0.0  # a zero Choi matrix gives one zero element
        for t, stack, c in zip(rest.tolist(), elements, counts.tolist()):
            stacks[t] = stack[: max(1, c)]
    return tuple(KrausMap._stacked(stacks, labels))


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
        if all(m._diagonal_weights is not None for m in maps):
            resid = frobenius(sum(m._diagonal_weights for m in maps) - 1.0)
        else:
            resid = frobenius(sum(m.unit_image for m in maps) - np.eye(d_in))
        object.__setattr__(self, "unit_sum_residual", resid)
        if resid > defaults.UNIT_SUM_TOL:
            raise ValidationFailure(f"unit images sum off identity by {resid:.3e}")

    @classmethod
    def trivial(cls, dim: int) -> "Partition":
        return cls((KrausMap((np.eye(dim, dtype=complex),), label=0),))

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
        """State after the total (unital) map, the sum of the branch images; preserves the weight."""
        return total_functional(self.branch_preduals(omega))

    def branch_preduals(self, omega: StateFunctional) -> list[StateFunctional]:
        """predual_apply of every outcome, in outcome order."""
        if omega.dim != self.dim_in:
            raise DimensionMismatch(f"state dimension {omega.dim} vs partition input {self.dim_in}")
        return _images(self.maps, omega)


def _batches(keys, element_entries: int):
    """Index lists of equal keys, not None and led by a Kraus count, within `_STACK_BYTES`."""
    groups: dict[tuple, list[int]] = {}
    for t, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(t)
    for key, members in groups.items():
        step = max(1, _STACK_BYTES // (16 * key[0] * element_entries))
        for start in range(0, len(members), step):
            yield members[start : start + step]


def compose(zeta: Partition, eta: Partition) -> Partition:
    """Joint partition with zeta acting first in time.

    Outcome (i, j) has Kraus family {L @ K}, replaced by a minimal family
    when it has more than dim_in * dim_out elements; its predual applies
    zeta_i then eta_j to states.  Each composite map is built once: one by
    one, from the product of their diagonals, for two exactly diagonal maps
    that need no compression, else in batches of equal Kraus counts (one
    broadcast product, Choi compression and eigvalsh each).
    """
    if eta.dim_in != zeta.dim_out:
        raise DimensionMismatch(
            f"cannot compose: second partition input {eta.dim_in} vs first output {zeta.dim_out}"
        )
    d_in, d_out = zeta.dim_in, eta.dim_out
    pairs = [(mi, mj) for mi in zeta.maps for mj in eta.maps]
    maps, keys = {}, []
    for t, (mi, mj) in enumerate(pairs):
        key = (mi._shape[0] * mj._shape[0], mi._shape[0], mj._shape[0])
        diagonal = mi._diagonals is not None and mj._diagonals is not None
        if diagonal and key[0] <= d_in * d_out:
            # one build and eigvalsh per pair, as qdebench/selfcheck.py counts them
            maps[t] = KrausMap(_Diagonals(_product_diagonals(mi, mj)), (mi.label, mj.label))
        keys.append(None if t in maps else key)
    for batch in _batches(keys, d_in * d_out):
        firsts, seconds = [pairs[t][0] for t in batch], [pairs[t][1] for t in batch]
        # one broadcast product {L @ K}, K-major, for the whole batch
        k, l = np.array([m._stack for m in firsts]), np.array([m._stack for m in seconds])
        prods = (l[:, None] @ k[:, :, None]).reshape(len(batch), -1, d_out, d_in)
        names = [(mi.label, mj.label) for mi, mj in zip(firsts, seconds)]
        if prods.shape[1] > d_in * d_out:
            built = kraus_from_choi(_choi(prods), d_in, d_out, names)
        else:
            built = KrausMap._stacked(list(prods), names)
        maps.update(zip(batch, built))
    return Partition(tuple(maps[t] for t in range(len(pairs))))


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
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
            raise DimensionMismatch(
                f"a unitary must be a nonempty square matrix, got shape {u.shape}"
            )
        dev = frobenius(dagger(u) @ u - np.eye(u.shape[0]))
        if not dev <= defaults.UNITARITY_TOL * u.shape[0]:  # a NaN residual fails too
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


def _projector_family(projectors) -> list[np.ndarray]:
    """The symmetrized members of a nonempty family of orthogonal projectors
    (hermitian and idempotent within PROJECTOR_TOL) that sums to the identity."""
    projs = [as_hermitian(p, tol=defaults.PROJECTOR_TOL) for p in projectors]
    if not projs:
        raise ValidationFailure("empty projector family")
    if any(p.shape != projs[0].shape for p in projs):
        raise DimensionMismatch("projectors of mixed dimensions")
    for p in projs:
        if frobenius(p @ p - p) > defaults.PROJECTOR_TOL:
            raise ValidationFailure("input is not an orthogonal projector")
    if frobenius(sum(projs) - np.eye(projs[0].shape[0])) > defaults.PROJECTOR_TOL:
        raise ValidationFailure("projectors do not sum to the identity")
    return projs


def vn_partition(projectors) -> Partition:
    """Projective partition: each outcome acts as x -> P x P."""
    projs = _projector_family(projectors)
    for a, b in itertools.combinations(projs, 2):
        if frobenius(a @ b) > defaults.PROJECTOR_TOL:
            raise ValidationFailure("projectors are not mutually orthogonal")
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
    projs = _projector_family(projectors)
    dim = projs[0].shape[0]
    if phi.dim != dim:
        raise DimensionMismatch(f"state dimension {phi.dim} vs projector dimension {dim}")
    for p in projs:
        if frobenius(rho @ p - p @ rho) > defaults.INVARIANCE_TOL:
            raise ValidationFailure(
                "projector does not commute with the state; "
                "only the pinching conditional expectation is supported"
            )

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
