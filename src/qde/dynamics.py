"""Information functionals of measurements and the dynamical-entropy sequence.

The information of a partition (zeta_i) in a normalized state phi is the
average divergence of the outcome functionals from the mean output,

    H_phi(zeta) = sum_i p_i S(phi.zeta_i / p_i, phi.zeta),   p_i = phi(zeta_i(I)),

which splits exactly into a classical Shannon part over the outcome weights
and a quantum part summing divergences of the unnormalized branch
functionals:

    H = H^c + H^q,   H^c = -sum_i p_i ln p_i,   H^q = sum_i S(phi.zeta_i, phi.zeta).

Under an automorphism theta the sequence a_n = H_phi(zeta | zeta composed
with its n past transports) is monotone nonincreasing and bounded by
H_phi(zeta); its tail estimates the dynamical entropy of (theta, phi, zeta).
A measurement word whose Kraus elements are all exactly 0 is dead: its
branch is the zero matrix in every state, and every extension of it is dead
too.  `an_sequence` drops dead words from the joins it extends; `refinement`
keeps every word.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import (
    DimensionMismatch,
    PropertyViolation,
    ResourceCapExceeded,
    ValidationFailure,
)
from .linalg import BlockAlgebra, direct_sum, frobenius
from .partitions import Automorphism, Partition, compose, conjugate
from .states import DivergenceEngine, StateFunctional, relative_entropy, total_functional


@dataclass(frozen=True)
class InformationReport:
    """Total information of a measurement with its classical/quantum split."""

    total_H: float
    classical_Hc: float
    quantum_Hq: float
    weights: dict
    infinite_flag: bool

    @property
    def split_residual(self) -> float:
        """|H - (H^c + H^q)|; an exact identity up to floating error."""
        if self.infinite_flag:
            return 0.0
        return abs(self.total_H - (self.classical_Hc + self.quantum_Hq))


def information(phi: StateFunctional, zeta: Partition) -> InformationReport:
    """Information gained by the partition zeta in the state phi, in nats."""
    phi.require_normalized()
    return _information(zeta, zeta.branch_preduals(phi))


_ROW_BYTES = 1 << 15  # float64 bytes per chunk of branch rows on an all-1-block algebra


def _information(zeta: Partition, branches) -> InformationReport:
    """`information` from the branch images of zeta in a normalized state,
    `zeta.branch_preduals(phi)`, for callers that read the images again.

    Branches on one all-1-block algebra take the engine's row kernel, on chunks
    of at most `_ROW_BYTES` stacked from the branch list one at a time.
    """
    engine = DivergenceEngine(total_functional(branches))
    weights = {m.label: branch.weight for m, branch in zip(zeta.maps, branches)}
    live = [branch for branch in branches if branch.weight > defaults.WEIGHT_FLOOR]
    h_total = h_classical = h_quantum = 0.0
    infinite = False
    if engine.phi.algebra.is_commutative:
        step = max(1, _ROW_BYTES // (8 * engine.phi.dim))
        for start in range(0, len(live), step):
            chunk = live[start:start + step]
            p = np.array([branch.weight for branch in chunk])
            rows = np.array([branch._entries().real for branch in chunk])
            div = engine._rows((1.0 / p)[:, None] * rows)[0]
            finite = np.isfinite(div)
            infinite = infinite or not finite.all()
            h_quantum += float(engine._rows(rows)[0][finite].sum())
            h_total += float(np.dot(p[finite], div[finite]))
            h_classical -= float(np.dot(p[finite], np.log(p[finite])))
    else:
        for branch in live:
            p = branch.weight
            div = engine.report(branch.scale(1.0 / p)).value
            if math.isinf(div):
                infinite = True
                continue
            h_total += p * div
            h_classical += -p * math.log(p)
            h_quantum += engine.report(branch).value
    if infinite:  # H^c keeps the sum over the branches of finite divergence
        h_total = h_quantum = math.inf
    return InformationReport(h_total, h_classical, h_quantum, weights, infinite)


def information_via_direct_sum(phi: StateFunctional, zeta: Partition) -> float:
    """Same quantity as a single relative entropy on the outcome-indexed direct sum.

    The branch functionals fill the blocks of one density, the reference
    stacks weight-scaled copies of the mean output; their divergence equals
    the information.  Used as a cross-check oracle for `information`.
    """
    phi.require_normalized()
    branches = zeta.branch_preduals(phi)
    total = total_functional(branches).density
    algebra = BlockAlgebra(tuple(zeta.dim_out for _ in branches))
    first = direct_sum([b.density for b in branches])
    second = direct_sum([b.weight * total for b in branches])
    return relative_entropy(
        StateFunctional._trusted(first, algebra),
        StateFunctional._trusted(second, algebra),
    )


def conditional_information(phi: StateFunctional, zeta: Partition, eta: Partition) -> float:
    """H_phi(zeta composed with eta) - H_{phi after zeta}(eta).

    Nonnegative for completely positive sub-unital partitions: the extra
    information carried by the first measurement given the second.
    """
    joint = information(phi, compose(zeta, eta)).total_H
    after = zeta.total_predual(phi)
    second = information(after, eta).total_H
    return joint - second


def _live(join: Partition) -> Partition:
    """The join without its dead words: outcomes whose Kraus elements are all 0.

    All-zero square elements are exactly diagonal, so a map held without
    diagonals has a nonzero off-diagonal entry and is live.  A join with no
    dead word is returned as it is, without a second unit-sum check.
    """
    live = tuple(m for m in join.maps if m._diagonals is None or m._diagonals.any())
    return join if len(live) == join.size else Partition(live)


def _flat_word(label, n: int) -> tuple:
    """The nested label of a depth-n join as the word (i_1, ..., i_n)."""
    word = ()
    for _ in range(n - 1):
        label, last = label
        word = (last,) + word
    return (label,) + word


def _exceeds_branch_cap(outcomes: int, length: int) -> bool:
    """Whether max(outcomes, 2)**length words exceed BRANCH_CAP.

    At least two words per level give a one-outcome partition the depth
    limit of a two-outcome one, and the count passes the cap before length
    passes the cap's bit length, so a huge length never reaches the power.
    """
    cap = defaults.BRANCH_CAP
    return max(outcomes, 2) ** min(length, cap.bit_length() + 1) > cap


def refinement(theta: Automorphism, zeta: Partition, n: int) -> Partition:
    """Joint partition of the n past transports theta^{-1}(zeta) ... theta^{-n}(zeta).

    Outcomes are labeled by words (i_1, ..., i_n), earliest factor first.
    """
    if n < 1:
        raise ValidationFailure("refinement depth must be at least 1")
    if _exceeds_branch_cap(zeta.size, n):
        raise ResourceCapExceeded(
            f"refinement would enumerate more than {defaults.BRANCH_CAP} branches"
        )
    joint = conjugate(theta.power(-1), zeta)
    for k in range(2, n + 1):  # every word kept, dead ones included
        joint = compose(joint, conjugate(theta.power(-k), zeta))
    return Partition(tuple(m.relabel(_flat_word(m.label, n)) for m in joint.maps))


@dataclass(frozen=True)
class EntropySequence:
    """Conditional informations a_1..a_N with the monotone certificate."""

    values: tuple[float, ...]
    h_estimate: float
    converged: bool
    monotonicity_residual: float
    information_bound: float

    @property
    def depth(self) -> int:
        return len(self.values)


def _sequence_from(values, information_bound) -> EntropySequence:
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    resid = max([0.0] + diffs)
    converged = (
        len(values) >= 2 and abs(values[-1] - values[-2]) <= defaults.CONVERGENCE_TOL
    )
    return EntropySequence(
        values=tuple(values),
        h_estimate=values[-1],
        converged=converged,
        monotonicity_residual=resid,
        information_bound=information_bound,
    )


def _check_automorphism(theta: Automorphism, zeta: Partition) -> None:
    if theta.dim != zeta.dim_in:
        raise DimensionMismatch(
            f"automorphism dimension {theta.dim} vs partition input {zeta.dim_in}"
        )


def an_sequence(
    phi: StateFunctional,
    theta: Automorphism,
    zeta: Partition,
    depth: int = defaults.DEFAULT_DEPTH,
) -> EntropySequence:
    """a_n = H_phi(zeta | past refinement of depth n) for n = 1..depth.

    When phi is theta-invariant the transported form
    H_phi(theta^n(zeta) | theta^{n-1}(zeta) ... zeta) is computed as well and
    must agree within 1e-8.  Requires finite information; a non-invariant phi
    only triggers a warning since the definition still evaluates.

    Both joins drop their dead words after each compose.  This is exact: a
    dead word's branch is the zero matrix, which adds +0.0 to the mean output
    and, at weight 0, nothing to either information.
    """
    if zeta.dim_in != zeta.dim_out:
        raise DimensionMismatch("dynamics needs measurements on a single algebra")
    _check_automorphism(theta, zeta)
    if depth < 1:
        raise ValidationFailure("depth must be at least 1")
    if _exceeds_branch_cap(zeta.size, depth + 1):
        raise ResourceCapExceeded(
            f"depth {depth} would enumerate more than {defaults.BRANCH_CAP} branches"
        )
    base = information(phi, zeta)
    if base.infinite_flag:
        raise ValidationFailure("the base information is infinite; the sequence is undefined")
    invariance_gap = frobenius(theta.predual(phi.density) - phi.density)
    invariant = invariance_gap <= defaults.INVARIANCE_TOL
    if not invariant:
        warnings.warn(
            f"state is not invariant under the automorphism (residual {invariance_gap:.3e})",
            stacklevel=2,
        )

    values = []
    past = None  # theta^{-1}(zeta) composed ... composed theta^{-n}(zeta)
    transported = zeta  # theta^{n-1}(zeta) composed ... composed zeta
    for n in range(1, depth + 1):
        step = conjugate(theta.power(-n), zeta)
        past = step if past is None else _live(compose(past, step))
        a_n = conditional_information(phi, zeta, past)
        if invariant:
            if n > 1:
                transported = _live(compose(conjugate(theta.power(n - 1), zeta), transported))
            b_n = conditional_information(phi, conjugate(theta.power(n), zeta), transported)
            if abs(a_n - b_n) > 1e-8:
                raise PropertyViolation(
                    f"transported conditional information disagrees at n={n}: "
                    f"{a_n:.12f} vs {b_n:.12f}"
                )
        values.append(a_n)
    return _sequence_from(values, base.total_H)


def admissibility_check(
    phi: StateFunctional, zeta: Partition, depth: int = 3
) -> tuple[bool, EntropySequence]:
    """True when the partition generates no information under trivial dynamics."""
    seq = an_sequence(phi, Automorphism.identity(zeta.dim_in), zeta, depth)
    return seq.h_estimate <= defaults.ADMISSIBILITY_TOL, seq


def invariance_check(phi: StateFunctional, zeta: Partition) -> float:
    """Frobenius distance between phi and phi after the total map."""
    return frobenius(zeta.total_predual(phi).density - phi.density)


@dataclass(frozen=True)
class ConvexityReport:
    lambdas: tuple[float, ...]
    values: tuple[float, ...]
    max_above_chord: float


def convexity_probe(
    phi0: StateFunctional,
    phi1: StateFunctional,
    zeta: Partition,
    theta: Automorphism,
    depth: int = defaults.DEFAULT_DEPTH,
) -> ConvexityReport:
    """Entropy estimates at lambda = 0, 1/4, 1/2, 3/4, 1 along the segment
    between two invariant states.

    Reports the largest positive deviation of the estimate above the chord;
    convexity predicts none beyond numerical noise.
    """
    from .states import mix

    _check_automorphism(theta, zeta)
    for which, phi in (("first", phi0), ("second", phi1)):
        if phi.dim != zeta.dim_in:
            raise DimensionMismatch(
                f"{which} endpoint dimension {phi.dim} vs partition input {zeta.dim_in}"
            )
        gap = frobenius(theta.predual(phi.density) - phi.density)
        if gap > defaults.INVARIANCE_TOL:
            raise ValidationFailure(f"{which} endpoint is not invariant (residual {gap:.3e})")
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    values = [an_sequence(mix(phi0, phi1, lam), theta, zeta, depth).h_estimate for lam in lambdas]
    h0, h1 = values[0], values[-1]
    above = max(v - ((1.0 - lam) * h0 + lam * h1) for lam, v in zip(lambdas, values))
    return ConvexityReport(lambdas, tuple(values), max(0.0, above))
