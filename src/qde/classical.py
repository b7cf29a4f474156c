"""Finite-space classical information and exact symbolic dynamics.

Partitions of unity on a finite measure space are families of nonnegative
functions with sum of squares equal to one pointwise; each acts on densities
by pointwise multiplication with the squared function.  The information of
such a partition under the measure mu is

    H(zeta) = -sum_i mu(zeta_i^2) ln mu(zeta_i^2) + sum_i mu(zeta_i^2 ln zeta_i^2),

which coincides with the quantum information of the diagonal embedding.
Measure-preserving permutations give zero-entropy dynamics; positive-entropy
ground truth comes from exact Bernoulli/Markov cylinder measures on windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .dynamics import EntropySequence, _sequence_from
from .errors import DimensionMismatch, ResourceCapExceeded, ValidationFailure
from .partitions import KrausMap, Partition, _Diagonals
from .states import StateFunctional


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Finite set of points with a probability vector."""

    measure: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.measure, dtype=float)
        if mu.ndim != 1 or mu.size < 1:
            raise ValidationFailure("measure must be a nonempty vector")
        if np.any(mu < -1e-15):
            raise ValidationFailure("measure has negative entries")
        if abs(mu.sum() - 1.0) > defaults.MEASURE_SUM_TOL:
            raise ValidationFailure(f"measure sums to {mu.sum():.15f}, expected 1")
        mu = np.clip(mu, 0.0, None)
        mu.setflags(write=False)
        object.__setattr__(self, "measure", mu)

    @property
    def size(self) -> int:
        return self.measure.size

    @classmethod
    def uniform(cls, points: int) -> "FiniteSpace":
        return cls(np.full(points, 1.0 / points))


@dataclass(frozen=True, eq=False)
class FunctionPartition:
    """Family of nonnegative functions with sum of squares one at every point."""

    values: np.ndarray
    labels: tuple = None

    def __post_init__(self):
        v = np.abs(np.asarray(self.values, dtype=float))  # canonical nonnegative choice
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValidationFailure("function table must be a nonempty 2-d array")
        if not np.isfinite(v).all():  # a NaN would pass the unity check below
            raise ValidationFailure("function table has non-finite entries")
        unity = np.abs((v**2).sum(axis=0) - 1.0).max()
        if unity > defaults.FUNCTION_UNITY_TOL:
            raise ValidationFailure(f"squares do not sum to one pointwise (residual {unity:.3e})")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        labels = self.labels
        if labels is None:
            labels = tuple(range(v.shape[0]))
        if len(labels) != v.shape[0] or len(set(labels)) != len(labels):
            raise ValidationFailure("labels must be distinct and match the function count")
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def points(self) -> int:
        return self.values.shape[1]

    @classmethod
    def indicator(cls, cells, points: int) -> "FunctionPartition":
        """0/1 partition from a list of disjoint index cells covering the space."""
        table = np.zeros((len(cells), points))
        for row, cell in enumerate(cells):
            table[row, list(cell)] = 1.0
        return cls(table)


def _cells_entropy(mu: np.ndarray, squares) -> float:
    """H over an explicit list of squared cell functions (need not be validated)."""
    h = 0.0
    for g2 in squares:
        w = float(mu @ g2)
        if w <= defaults.WEIGHT_FLOOR:
            continue
        h -= w * math.log(w)
        mask = g2 > 1e-300
        h += float(np.sum(mu[mask] * g2[mask] * np.log(g2[mask])))
    return h


def classical_information(space: FiniteSpace, zeta: FunctionPartition) -> float:
    """Information of the partition under the measure, in nats."""
    if zeta.points != space.size:
        raise DimensionMismatch(f"partition on {zeta.points} points, space has {space.size}")
    return _cells_entropy(space.measure, zeta.values**2)


def compose_function_partitions(
    zeta: FunctionPartition, eta: FunctionPartition
) -> FunctionPartition:
    """Joint partition by pointwise products, labels paired (i, j)."""
    if zeta.points != eta.points:
        raise DimensionMismatch("partitions on different spaces")
    rows = []
    labels = []
    for fi, li in zip(zeta.values, zeta.labels):
        for gj, lj in zip(eta.values, eta.labels):
            rows.append(fi * gj)
            labels.append((li, lj))
    return FunctionPartition(np.array(rows), tuple(labels))


def classical_conditional(
    space: FiniteSpace, zeta: FunctionPartition, eta: FunctionPartition
) -> float:
    """H(zeta composed with eta) - H_{mu after Zeta}(eta); zero when eta refines zeta."""
    joint = classical_information(space, compose_function_partitions(zeta, eta))
    mu_after = space.measure * (zeta.values**2).sum(axis=0)
    return joint - _cells_entropy(mu_after, eta.values**2)


def permutation_matrix(perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    u = np.zeros((perm.size, perm.size), dtype=complex)
    u[perm, np.arange(perm.size)] = 1.0
    return u


def _check_permutation(space: FiniteSpace, perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(space.size)):
        raise ValidationFailure("not a permutation of the points")
    if np.max(np.abs(space.measure[perm] - space.measure)) > defaults.MEASURE_SUM_TOL:
        raise ValidationFailure("permutation does not preserve the measure")
    return perm


def transport_partition(zeta: FunctionPartition, perm, steps: int = 1) -> FunctionPartition:
    """The partition moved forward by the permutation: functions precomposed with its inverse."""
    perm = np.asarray(perm, dtype=int)
    inv = np.argsort(perm)
    table = zeta.values
    mover = inv if steps >= 0 else perm
    for _ in range(abs(steps)):
        table = table[:, mover]
    return FunctionPartition(table, zeta.labels)


def permutation_entropy_sequence(
    space: FiniteSpace,
    perm,
    zeta: FunctionPartition,
    depth: int,
) -> EntropySequence:
    """Conditional informations of zeta given its n past transports under a permutation.

    Periodic dynamics exhaust themselves: the values reach zero once the past
    window covers a full period.
    """
    if depth < 1:
        raise ValidationFailure("depth must be at least 1")
    perm = _check_permutation(space, perm)
    mu = space.measure
    base = classical_information(space, zeta)
    squares = zeta.values**2

    # past cells as squared functions, refined one transported step at a time
    step = np.arange(space.size)
    past: list[np.ndarray] = None
    values = []
    for n in range(1, depth + 1):
        step = perm[step]
        # theta^{-n}(zeta)_i = zeta_i after n forward steps of the permutation
        shifted = squares[:, step]
        if past is None:
            past = [row for row in shifted]
        else:
            if len(past) * zeta.size > defaults.BRANCH_CAP:
                raise ResourceCapExceeded(
                    f"refinement at depth {n} exceeds the {defaults.BRANCH_CAP} branch cap"
                )
            past = [g2 * row for g2 in past for row in shifted]
            past = [g2 for g2 in past if float(mu @ g2) > 1e-15]
        joint = [f2 * g2 for f2 in squares for g2 in past]
        mu_after = mu * squares.sum(axis=0)
        values.append(_cells_entropy(mu, joint) - _cells_entropy(mu_after, past))
    return _sequence_from(values, base)


@dataclass(frozen=True)
class ComparisonReport:
    """Finite-step comparison of two partitions under the same dynamics."""

    joint_information: float
    bound: float
    residual: float

    @property
    def satisfied(self) -> bool:
        return self.residual <= 1e-8


def partition_comparison_bound(
    space: FiniteSpace,
    perm,
    zeta: FunctionPartition,
    eta: FunctionPartition,
    n: int,
) -> ComparisonReport:
    """Check H(zeta_n) <= H(eta_n) + n H(zeta|eta) for the n-fold forward joins."""
    perm = _check_permutation(space, perm)
    if max(zeta.size, eta.size) ** n > defaults.BRANCH_CAP:
        raise ResourceCapExceeded(f"{n}-fold join exceeds the {defaults.BRANCH_CAP} branch cap")

    def joined(partition: FunctionPartition) -> float:
        cells = [np.ones(space.size)]
        for k in range(n):
            moved = transport_partition(partition, perm, steps=k)
            sq = moved.values**2
            cells = [c * row for c in cells for row in sq]
            cells = [c for c in cells if float(space.measure @ c) > 1e-15]
        return _cells_entropy(space.measure, cells)

    lhs = joined(zeta)
    rhs = joined(eta) + n * classical_conditional(space, zeta, eta)
    return ComparisonReport(lhs, rhs, max(0.0, lhs - rhs))


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """A stationary probability vector of a row-stochastic matrix."""
    p = np.asarray(transition, dtype=float)
    w, v = np.linalg.eig(p.T)
    idx = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(v[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


@dataclass(frozen=True, eq=False)
class SymbolicShift:
    """Stationary Markov (or Bernoulli) source with exact cylinder measures."""

    transition: np.ndarray
    stationary: np.ndarray = None

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationFailure("transition matrix must be square")
        if np.any(p < -1e-15):
            raise ValidationFailure("transition matrix has negative entries")
        rows = np.abs(p.sum(axis=1) - 1.0).max()
        if rows > defaults.STOCHASTICITY_TOL:
            raise ValidationFailure(f"rows are not stochastic (residual {rows:.3e})")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "transition", p)
        pi = self.stationary
        if pi is None:
            pi = stationary_distribution(p)
        pi = np.asarray(pi, dtype=float)
        if np.max(np.abs(pi @ p - pi)) > defaults.STOCHASTICITY_TOL:
            raise ValidationFailure("vector is not stationary for the transition matrix")
        pi = np.clip(pi, 0.0, None)
        pi.setflags(write=False)
        object.__setattr__(self, "stationary", pi)

    @property
    def alphabet_size(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def bernoulli(cls, probs) -> "SymbolicShift":
        probs = np.asarray(probs, dtype=float)
        return cls(np.tile(probs, (probs.size, 1)), probs)

    def cylinder_measures(self, length: int) -> np.ndarray:
        """Exact measures of all alphabet words of the given length, flat and in word order.

        Products are accumulated in the log domain; words through a
        zero-probability transition get measure exactly zero.
        """
        if length < 1:
            raise ValidationFailure("window length must be at least 1")
        if self.alphabet_size**length > self.max_window_size:
            raise ResourceCapExceeded(
                f"window of length {length} enumerates {self.alphabet_size**length} words"
            )
        with np.errstate(divide="ignore"):
            log_pi = np.log(self.stationary)
            log_p = np.log(self.transition)
        log_m = log_pi
        for _ in range(length - 1):
            log_m = log_m[..., None] + log_p
        flat = log_m.reshape(-1)
        out = np.where(np.isneginf(flat), 0.0, np.exp(flat))
        return out

    @property
    def max_window_size(self) -> int:
        return self.alphabet_size**defaults.MAX_WINDOW

    def word_digits(self, length: int) -> np.ndarray:
        """Array of shape (length, s^length) giving coordinate k of each word."""
        s = self.alphabet_size
        idx = np.arange(s**length)
        return np.array([(idx // s ** (length - 1 - k)) % s for k in range(length)])

    def word_space(self, length: int) -> FiniteSpace:
        return FiniteSpace(self.cylinder_measures(length))

    def coordinate_indicator(self, length: int, coords) -> FunctionPartition:
        """Indicator partition of words by their symbols at the given coordinates."""
        s = self.alphabet_size
        digits = self.word_digits(length)
        coords = list(coords)
        label_idx = np.zeros(digits.shape[1], dtype=int)
        for k in coords:
            label_idx = label_idx * s + digits[k]
        table = np.zeros((s ** len(coords), digits.shape[1]))
        table[label_idx, np.arange(digits.shape[1])] = 1.0
        return FunctionPartition(table)


def _shannon(q: np.ndarray) -> float:
    q = q[q > defaults.WEIGHT_FLOOR]
    return float(-np.sum(q * np.log(q)))


def markov_entropy_sequence(shift: SymbolicShift, depth: int = 5) -> EntropySequence:
    """Windowed conditional entropies of the observed symbol given n past symbols.

    Computed from exact cylinder measures; for a Markov source the value is
    -sum_ij pi_i P_ij ln P_ij at every n >= 1.
    """
    if depth < 1:
        raise ValidationFailure("depth must be at least 1")
    values = []
    for n in range(1, depth + 1):
        # words of length n + 1 in word order: the last symbol varies fastest,
        # so the past marginal sums consecutive runs of alphabet_size words;
        # summing the columns in turn adds each run left to right
        m = shift.cylinder_measures(n + 1)
        past = sum(m.reshape(-1, shift.alphabet_size).T)
        if n == 1:
            base = _shannon(past)
        values.append(_shannon(m) - _shannon(past))
    return _sequence_from(values, base)


def embed_diagonal(
    space: FiniteSpace, zeta: FunctionPartition
) -> tuple[StateFunctional, Partition]:
    """Diagonal-algebra embedding: the measure as a diagonal density, each
    function as a single diagonal Kraus element, held as its row."""
    if zeta.points != space.size:
        raise DimensionMismatch(f"partition on {zeta.points} points, space has {space.size}")
    state = StateFunctional.commutative(space.measure)
    rows = zeta.values.astype(complex)
    maps = tuple(
        KrausMap(_Diagonals(rows[i : i + 1]), label=l) for i, l in enumerate(zeta.labels)
    )
    return state, Partition(maps)
