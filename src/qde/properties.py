"""Randomized inequality suites and the instance generators behind them.

Each suite runs one trial per seeded random instance through `_family` and
returns the worst violation residual (0 means every instance satisfied the
inequality exactly or better; a NaN residual gives inf, a failure).  The same
functions back `qde verify` and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    FiniteSpace,
    FunctionPartition,
    classical_conditional,
    classical_information,
    compose_function_partitions,
    embed_diagonal,
    partition_comparison_bound,
    transport_partition,
)
from .dynamics import an_sequence, conditional_information, information, information_via_direct_sum
from .errors import ValidationFailure
from .linalg import dagger, power_on_support
from .partitions import Automorphism, KrausMap, Partition, compose, conjugate, predual_apply
from .states import (
    StateFunctional,
    donald_residual,
    decomposition_entropy_gap,
    mix,
    relative_entropy,
    trace_distance,
)

# ---------------------------------------------------------------------------
# instance generators


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.real(np.trace(rho))


def random_state(rng: np.random.Generator, dim: int) -> StateFunctional:
    return StateFunctional.from_density(random_density(rng, dim))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_partition(
    rng: np.random.Generator,
    dim_in: int,
    dim_out: int | None = None,
    outcomes: int = 2,
    kraus_per_map: int = 2,
) -> Partition:
    """Random completely positive partition of unity via right-normalization.

    The drawn elements must span the input space, so `outcomes *
    kraus_per_map * dim_out` must reach `dim_in`.
    """
    dim_out = dim_out or dim_in
    if outcomes * kraus_per_map * dim_out < dim_in:
        raise ValidationFailure(
            f"{outcomes} outcomes x {kraus_per_map} Kraus elements of {dim_out} rows "
            f"cannot span an input of dimension {dim_in}"
        )
    raw = [
        [rng.normal(size=(dim_out, dim_in)) + 1j * rng.normal(size=(dim_out, dim_in))
         for _ in range(kraus_per_map)]
        for _ in range(outcomes)
    ]
    total = sum(dagger(k) @ k for fam in raw for k in fam)
    whiten = power_on_support(total, -0.5)
    maps = tuple(
        KrausMap(tuple(k @ whiten for k in fam), label=i) for i, fam in enumerate(raw)
    )
    return Partition(maps)


def random_invariant_state(rng: np.random.Generator, unitary: np.ndarray) -> StateFunctional:
    """A state commuting with the unitary (mixture in its eigenbasis)."""
    _, v = np.linalg.eig(unitary)
    q, _ = np.linalg.qr(v)
    probs = rng.random(unitary.shape[0]) + 0.05
    probs /= probs.sum()
    rho = (q * probs) @ dagger(q)
    return StateFunctional.from_density(rho)


def random_function_partition(
    rng: np.random.Generator, points: int, cells: int = 2
) -> FunctionPartition:
    g = np.abs(rng.normal(size=(cells, points))) + 1e-3
    return FunctionPartition(g / np.sqrt((g**2).sum(axis=0)))


# ---------------------------------------------------------------------------
# the trial runner


# name -> (suite, tolerance, trial cap), in definition order, which is the order
# `verify` runs and prints them; the capped suites and the finite-space ones
# draw from their own dimensions and ignore dims
_FAMILIES: dict = {}


def _family(name: str, tolerance: float = 1e-8, cap: int | None = None, dims=None):
    """Turn a trial `(rng, dims, t)`, which draws one instance and returns how far
    it violates its inequality (or a sequence of such residuals), into a suite
    `(rng, dims=dims, trials=200)`, and register it as the verify family `name`:
    it passes when its worst residual over at most `cap` trials is at most
    `tolerance`.  The suite returns the worst residual: 0 when none is
    positive, inf when one is NaN."""

    def build(trial):
        def suite(rng, dims=dims, trials=200) -> float:
            worst = 0.0
            for t in range(trials):
                residual = np.max(trial(rng, dims, t))
                if math.isnan(residual):
                    return math.inf
                worst = max(worst, residual)
            return worst

        suite.__doc__ = trial.__doc__
        _FAMILIES[name] = (suite, tolerance, cap)
        return suite

    return build


# ---------------------------------------------------------------------------
# relative-entropy suites


@_family("lower_bound", dims=(2, 3, 4, 5, 6))
def lower_bound_suite(rng, dims, t):
    """Half squared trace distance never exceeds the relative entropy."""
    d = dims[t % len(dims)]
    a, b = random_state(rng, d), random_state(rng, d)
    return 0.5 * trace_distance(a, b) ** 2 - relative_entropy(a, b)


_LAMBDAS = np.arange(0.1, 0.95, 0.1)


@_family("joint_convexity", dims=(2, 3, 4))
def joint_convexity_suite(rng, dims, t):
    d = dims[t % len(dims)]
    a1, a2 = random_state(rng, d), random_state(rng, d)
    b1, b2 = random_state(rng, d), random_state(rng, d)
    lam = float(_LAMBDAS[t % len(_LAMBDAS)])
    mixed = relative_entropy(mix(a1, a2, lam), mix(b1, b2, lam))
    return mixed - ((1 - lam) * relative_entropy(a1, b1) + lam * relative_entropy(a2, b2))


@_family("monotonicity", dims=(2, 3, 4))
def monotonicity_suite(rng, dims, t):
    """Relative entropy contracts under precomposition with unital CP maps."""
    d_in = dims[t % len(dims)]
    d_out = dims[(t + 1) % len(dims)]
    kraus = max(3, math.ceil(d_in / d_out))  # enough elements to span the input
    tau = random_partition(rng, d_in, d_out, outcomes=1, kraus_per_map=kraus).maps[0]
    a, b = random_state(rng, d_in), random_state(rng, d_in)
    return relative_entropy(predual_apply(tau, a), predual_apply(tau, b)) - relative_entropy(a, b)


@_family("donald_identity", dims=(2, 3, 4))
def donald_suite(rng, dims, t):
    d = dims[t % len(dims)]
    phi = random_state(rng, d)
    pieces = [random_state(rng, d).scale(rng.random() + 0.1) for _ in range(3)]
    return donald_residual(pieces, phi)


@_family("scaling_identity", tolerance=1e-9, dims=(2, 3, 4))
def scaling_identity_suite(rng, dims, t):
    d = dims[t % len(dims)]
    omega, phi = random_state(rng, d), random_state(rng, d)
    lam = 0.05 + 0.95 * rng.random()
    lhs = relative_entropy(omega.scale(lam), phi)
    return abs(lhs - (lam * math.log(lam) + lam * relative_entropy(omega, phi)))


@_family("decomposition_gap", dims=(2, 3))
def decomposition_gap_suite(rng, dims, t):
    """Average divergence of a decomposition from its sum stays below the entropy."""
    d = dims[t % len(dims)]
    phi = random_state(rng, d)
    sqrt_rho = power_on_support(phi.density, 0.5)
    raw = [random_density(rng, d) * (rng.random() + 0.1) for _ in range(3)]
    whiten = power_on_support(sum(raw), -0.5)
    pieces = [
        StateFunctional._trusted(sqrt_rho @ (whiten @ a @ whiten) @ sqrt_rho, phi.algebra)
        for a in raw
    ]
    return -decomposition_entropy_gap(pieces, phi)


@_family("tracial_commutant", dims=(2, 3, 4))
def tracial_commutant_suite(rng, dims, t):
    """For the tracial state, conditioning by a commutant operator has entropy
    tr(a ln a)/d; exact in finite dimensions."""
    d = dims[t % len(dims)]
    a = random_density(rng, d) * d  # random positive, trace d
    psi = StateFunctional.from_density(a / d)
    w = np.linalg.eigvalsh(a)
    w = w[w > 1e-14]
    expected = float(np.sum(w * np.log(w))) / d
    return abs(relative_entropy(psi, StateFunctional.maximally_mixed(d)) - expected)


# ---------------------------------------------------------------------------
# measurement-information suites


def _random_instance(rng, dims):
    d = dims[int(rng.integers(len(dims)))]
    phi = random_state(rng, d)
    zeta = random_partition(
        rng, d, d, outcomes=int(rng.integers(2, 4)), kraus_per_map=int(rng.integers(1, 3))
    )
    return phi, zeta


@_family("direct_sum_agreement", dims=(2, 3, 4))
def direct_sum_agreement_suite(rng, dims, t):
    phi, zeta = _random_instance(rng, dims)
    return abs(information(phi, zeta).total_H - information_via_direct_sum(phi, zeta))


@_family("split_identity", dims=(2, 3, 4))
def split_identity_suite(rng, dims, t):
    phi, zeta = _random_instance(rng, dims)
    return information(phi, zeta).split_residual


def _random_triple(rng, dims):
    d_a, d_b, d_c, d_d = (dims[int(rng.integers(len(dims)))] for _ in range(4))
    phi = random_state(rng, d_a)
    # two outcomes of ceil(d_in / (2 d_out)) elements each span the input
    zeta, eta, beta = (
        random_partition(rng, d_in, d_out, outcomes=2, kraus_per_map=math.ceil(d_in / (2 * d_out)))
        for d_in, d_out in ((d_a, d_b), (d_b, d_c), (d_c, d_d))
    )
    return phi, zeta, eta, beta


def _split_term_suite(name: str, field: str):
    """The family `name` bounding the joint `field` of an InformationReport by
    the first-step plus conditioned second-step values."""

    @_family(name, dims=(2, 3, 4))
    def suite(rng, dims, t):
        phi, zeta, eta, _ = _random_triple(rng, dims)
        joint = getattr(information(phi, compose(zeta, eta)), field)
        first = getattr(information(phi, zeta), field)
        second = getattr(information(zeta.total_predual(phi), eta), field)
        return joint - (first + second)

    return suite


# joint information never exceeds first-step plus conditioned second-step
subadditivity_suite = _split_term_suite("subadditivity", "total_H")


@_family("conditional_monotonicity", dims=(2, 3, 4))
def conditional_monotonicity_suite(rng, dims, t):
    """Conditioning on a longer future never increases the conditional information."""
    phi, zeta, eta, beta = _random_triple(rng, dims)
    longer = conditional_information(phi, zeta, compose(eta, beta))
    return longer - conditional_information(phi, zeta, eta)


# the same bound holds for the Shannon part of the joint information (joint
# weights against the product of the two marginals) and for its divergence part
classical_term_suite = _split_term_suite("classical_term", "classical_Hc")
quantum_term_suite = _split_term_suite("quantum_term", "quantum_Hq")


@_family("conjugation_invariance", dims=(2, 3, 4))
def conjugation_invariance_suite(rng, dims, t):
    """Information is unchanged by automorphisms fixing the state."""
    d = dims[t % len(dims)]
    phi = StateFunctional.maximally_mixed(d)
    theta = Automorphism(random_unitary(rng, d))
    zeta = random_partition(rng, d, d, outcomes=2, kraus_per_map=2)
    a = information(phi, zeta).total_H
    return abs(a - information(phi, conjugate(theta, zeta)).total_H)


@_family("an_certificate", cap=50)
def an_certificate_suite(rng, dims, t):
    """Monotone, nonnegative, information-bounded conditional sequences on random
    invariant systems of dimensions 2 and 3 in turn."""
    d = 2 + t % 2
    u = random_unitary(rng, d)
    theta = Automorphism(u)
    phi = random_invariant_state(rng, u)
    zeta = random_partition(rng, d, d, outcomes=2, kraus_per_map=2)
    seq = an_sequence(phi, theta, zeta, 5)
    bound = seq.information_bound
    return (seq.monotonicity_residual, *(v - bound for v in seq.values), *(-v for v in seq.values))


# ---------------------------------------------------------------------------
# classical finite-space suites

_POINTS = 4  # every finite-space suite draws its instances on 4 points


def _random_space(rng) -> FiniteSpace:
    mu = rng.random(_POINTS) + 0.1
    return FiniteSpace(mu / mu.sum())


def _function_partitions(rng, count: int) -> list[FunctionPartition]:
    return [random_function_partition(rng, _POINTS, cells=2) for _ in range(count)]


@_family("classical_refinement", cap=100)
def classical_refinement_suite(rng, dims, t):
    """Joint information of two partitions dominates each single one."""
    space = _random_space(rng)
    zeta, eta = _function_partitions(rng, 2)
    joint = classical_information(space, compose_function_partitions(zeta, eta))
    return classical_information(space, zeta) - joint


@_family("classical_conditional_monotonicity", cap=100)
def classical_conditional_monotonicity_suite(rng, dims, t):
    space = _random_space(rng)
    zeta, eta, beta = _function_partitions(rng, 3)
    longer = classical_conditional(space, zeta, compose_function_partitions(eta, beta))
    return longer - classical_conditional(space, zeta, eta)


@_family("classical_transport", tolerance=1e-9, cap=100)
def classical_transport_suite(rng, dims, t):
    """Conditional information is unchanged by a measure-preserving permutation."""
    space = FiniteSpace.uniform(_POINTS)
    perm = rng.permutation(_POINTS)
    zeta, beta = _function_partitions(rng, 2)
    moved = [transport_partition(p, perm) for p in (zeta, beta)]
    return abs(classical_conditional(space, zeta, beta) - classical_conditional(space, *moved))


@_family("classical_comparison", cap=100)
def classical_comparison_suite(rng, dims, t):
    perm = rng.permutation(_POINTS)
    zeta, eta = _function_partitions(rng, 2)
    return partition_comparison_bound(FiniteSpace.uniform(_POINTS), perm, zeta, eta, 3).residual


@_family("embedding_agreement", cap=100)
def embedding_agreement_suite(rng, dims, t):
    """Classical quantities equal their diagonal-embedded quantum counterparts."""
    space = _random_space(rng)
    zeta, eta = _function_partitions(rng, 2)
    state, q_zeta = embed_diagonal(space, zeta)
    _, q_eta = embed_diagonal(space, eta)
    quantum_conditional = conditional_information(state, q_zeta, q_eta)
    return (
        abs(classical_information(space, zeta) - information(state, q_zeta).total_H),
        abs(classical_conditional(space, zeta, eta) - quantum_conditional),
    )


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class FamilyResult:
    residual: float
    tolerance: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def run_property_suite(dims=(2, 3, 4), trials: int = 200, seed: int = 0) -> dict:
    """Run every inequality family; returns {name: FamilyResult}."""
    dims = tuple(dims)
    if not dims:
        raise ValidationFailure("the property suite needs at least one dimension")
    results = {}
    for name, (fn, tol, cap) in _FAMILIES.items():
        count = trials if cap is None else min(trials, cap)
        residual = float(fn(np.random.default_rng(seed), dims, count))
        results[name] = FamilyResult(residual=residual, tolerance=tol, trials=count)
    return results
