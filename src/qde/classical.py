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

from dataclasses import dataclass

import numpy as np

from . import defaults
from .dynamics import EntropySequence, _sequence_from
from .errors import DimensionMismatch, ResourceCapExceeded, ValidationFailure
from .linalg import assert_finite
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
        assert_finite(mu, "measure")  # a NaN would pass the checks below
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


def _cells_entropy(mu: np.ndarray, squares: np.ndarray) -> float:
    """H over the rows of squared cell functions (need not be validated)."""
    weights = squares @ mu
    live = squares[weights > defaults.WEIGHT_FLOOR]
    logs = np.log(live, where=live > 1e-300, out=np.zeros_like(live))
    return _shannon(weights) + float(np.sum((live * logs) @ mu))


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
    rows = (zeta.values[:, None] * eta.values).reshape(-1, zeta.points)
    return FunctionPartition(rows, tuple((li, lj) for li in zeta.labels for lj in eta.labels))


def _join(mu: np.ndarray, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Products of each squared cell with each squared row, cell-major, without
    those of measure at most 1e-15: a dead cell has only dead refinements."""
    joint = (cells[:, None] * rows).reshape(-1, mu.size)
    return joint[joint @ mu > 1e-15]


def _conditional(mu: np.ndarray, squares: np.ndarray, cells: np.ndarray) -> float:
    """H(zeta composed with eta) - H_{mu after Zeta}(eta) from the squared functions."""
    mu_after = mu * squares.sum(axis=0)
    return _cells_entropy(mu, _join(mu, squares, cells)) - _cells_entropy(mu_after, cells)


def classical_conditional(
    space: FiniteSpace, zeta: FunctionPartition, eta: FunctionPartition
) -> float:
    """H(zeta composed with eta) - H_{mu after Zeta}(eta); zero when eta refines zeta."""
    if not zeta.points == eta.points == space.size:
        raise DimensionMismatch(f"partitions on {zeta.points}, {eta.points} of {space.size} points")
    return _conditional(space.measure, zeta.values**2, eta.values**2)


def permutation_matrix(perm) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    u = np.zeros((perm.size, perm.size), dtype=complex)
    u[perm, np.arange(perm.size)] = 1.0
    return u


def _check_permutation(space: FiniteSpace, perm) -> np.ndarray:
    # compared before the integer conversion, which overflows on a huge entry
    if sorted(np.asarray(perm).tolist()) != list(range(space.size)):
        raise ValidationFailure("not a permutation of the points")
    perm = np.asarray(perm, dtype=int)
    if np.max(np.abs(space.measure[perm] - space.measure)) > defaults.MEASURE_SUM_TOL:
        raise ValidationFailure("permutation does not preserve the measure")
    return perm


def transport_partition(zeta: FunctionPartition, perm) -> FunctionPartition:
    """The partition moved forward by the permutation: functions precomposed with its inverse."""
    inv = np.argsort(np.asarray(perm, dtype=int))
    return FunctionPartition(zeta.values[:, inv], zeta.labels)


def _joins(mu: np.ndarray, squares: np.ndarray, move: np.ndarray, depth: int):
    """Live cells of the n-fold joins, n = 1..depth, of the squared functions read at
    the points as given, then through `move` applied 1..n-1 times; a depth or a
    level's live cells times outcomes above BRANCH_CAP is refused."""
    cap = defaults.BRANCH_CAP
    if depth > cap:
        raise ResourceCapExceeded(f"depth {depth} exceeds the {cap} level cap")
    cells, step = np.ones((1, mu.size)), np.arange(mu.size)
    for n in range(1, depth + 1):
        if cells.shape[0] * squares.shape[0] > cap:
            raise ResourceCapExceeded(f"refinement at depth {n} exceeds the {cap} branch cap")
        cells = _join(mu, cells, squares[:, step])
        step = move[step]
        yield cells


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
    base = classical_information(space, zeta)
    squares = zeta.values**2
    # theta^{-n}(zeta)_i = zeta_i after n forward steps of the permutation
    pasts = _joins(space.measure, squares[:, perm], perm, depth)
    return _sequence_from([_conditional(space.measure, squares, past) for past in pasts], base)


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
    mu, inv = space.measure, np.argsort(_check_permutation(space, perm))

    def joined(partition: FunctionPartition) -> float:
        # the k-th factor is the partition moved k steps forward, read at inv^k
        cells = np.ones((1, space.size))  # the empty join, for n < 1
        for cells in _joins(mu, partition.values**2, inv, n):
            pass
        return _cells_entropy(mu, cells)

    rhs = n * classical_conditional(space, zeta, eta) + joined(eta)  # checks the points first
    lhs = joined(zeta)
    return ComparisonReport(lhs, rhs, max(0.0, lhs - rhs))


def _check_window(length: int, entries: int) -> None:
    """Refuse a window of more than MAX_WINDOW symbols or TENSOR_DIM_CAP**2 (= 4**12) entries."""
    if length > defaults.MAX_WINDOW or entries > defaults.TENSOR_DIM_CAP**2:
        raise ResourceCapExceeded(
            f"window of length {length} ({entries} word entries) exceeds the cap of "
            f"{defaults.MAX_WINDOW} symbols and {defaults.TENSOR_DIM_CAP**2} entries"
        )


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """A stationary probability vector of a row-stochastic matrix."""
    p = np.asarray(transition, dtype=float)
    w, v = np.linalg.eig(p.T)
    pi = np.abs(np.real(v[:, np.argmin(np.abs(w - 1.0))]))
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
        assert_finite(p, "transition matrix")
        if np.any(p < -1e-15):
            raise ValidationFailure("transition matrix has negative entries")
        rows = np.abs(p.sum(axis=1) - 1.0).max()
        if rows > defaults.STOCHASTICITY_TOL:
            raise ValidationFailure(f"rows are not stochastic (residual {rows:.3e})")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "transition", p)
        pi = stationary_distribution(p) if self.stationary is None else self.stationary
        pi = np.asarray(pi, dtype=float)
        if pi.shape != (p.shape[0],):
            raise DimensionMismatch(
                f"stationary vector of shape {pi.shape} for {p.shape[0]} symbols"
            )
        assert_finite(pi, "stationary vector")
        if np.any(pi < -1e-15):
            raise ValidationFailure("stationary vector has negative entries")
        if abs(pi.sum() - 1.0) > defaults.STOCHASTICITY_TOL:
            raise ValidationFailure(f"stationary vector sums to {pi.sum():.12g}, not 1")
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
        """Exact measures of all alphabet words of the given length, flat and in
        word order; words through a zero-probability transition get exactly 0."""
        if length < 1:
            raise ValidationFailure("window length must be at least 1")
        _check_window(length, self.alphabet_size**length)
        for m in _windows(self, length):
            pass
        return m

    def word_space(self, length: int) -> FiniteSpace:
        return FiniteSpace(self.cylinder_measures(length))

    def coordinate_indicator(self, length: int, coords) -> FunctionPartition:
        """Indicator partition of words by their symbols at the given coordinates."""
        s = self.alphabet_size
        coords = list(coords)
        if not all(0 <= k < length for k in coords):
            raise ValidationFailure(f"coordinates {coords} outside a window of length {length}")
        _check_window(length, s ** (len(coords) + length))  # the table's entries
        # read only the asked symbols off the word index: no length x words array
        words = np.arange(s**length)
        label_idx = np.zeros(words.size, dtype=int)
        for k in coords:  # symbol k of each word; the last symbol varies fastest
            label_idx = label_idx * s + words // s ** (length - 1 - k) % s
        table = np.zeros((s ** len(coords), words.size))
        table[label_idx, words] = 1.0
        return FunctionPartition(table)


def _windows(shift: SymbolicShift, length: int):
    """Cylinder measures of the windows of 1..length symbols, each in word order
    (the last symbol varies fastest) and extended from the last: m(w) P_(last w) j."""
    m, s = np.array(shift.stationary), shift.alphabet_size
    yield m
    for _ in range(length - 1):
        m = (m.reshape(-1, s, 1) * shift.transition).reshape(-1)
        yield m


def _shannon(q: np.ndarray) -> float:
    q = q[q > defaults.WEIGHT_FLOOR]
    terms = np.log(q)
    terms *= q  # in place: one array beside the live weights
    return float(-np.sum(terms))


def markov_entropy_sequence(shift: SymbolicShift, depth: int = 5) -> EntropySequence:
    """Windowed conditional entropies of the observed symbol given n past symbols.

    Computed from exact cylinder measures, each window extended by one symbol
    from the last, whose measures are its past marginal; for a Markov source
    the value is -sum_ij pi_i P_ij ln P_ij at every n >= 1.  Every window is
    checked against the caps before the first is built.
    """
    if depth < 1:
        raise ValidationFailure("depth must be at least 1")
    for length in range(2, depth + 2):
        _check_window(length, shift.alphabet_size**length)
    h = [_shannon(m) for m in _windows(shift, depth + 1)]
    return _sequence_from([b - a for a, b in zip(h, h[1:])], h[0])


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
