"""Randomized inequality suites and the instance generators behind them.

Each suite draws seeded random instances and returns the worst violation
residual (0 means every instance satisfied the inequality exactly or
better).  The same functions back `qde verify` and the acceptance tests.
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
from .partitions import (
    Automorphism,
    KrausMap,
    Partition,
    compose,
    conjugate,
    predual_apply,
)
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
    """Random completely positive partition of unity via right-normalization."""
    dim_out = dim_out or dim_in
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


def random_unital_map(
    rng: np.random.Generator, dim_in: int, dim_out: int | None = None
) -> KrausMap:
    part = random_partition(rng, dim_in, dim_out, outcomes=1, kraus_per_map=3)
    return part.maps[0]


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
# relative-entropy suites


def lower_bound_suite(rng, dims=(2, 3, 4, 5, 6), trials=200) -> float:
    """Half squared trace distance never exceeds the relative entropy."""
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        a, b = random_state(rng, d), random_state(rng, d)
        s = relative_entropy(a, b)
        worst = max(worst, 0.5 * trace_distance(a, b) ** 2 - s)
    return worst


def joint_convexity_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    worst = 0.0
    lambdas = np.arange(0.1, 0.95, 0.1)
    for t in range(trials):
        d = dims[t % len(dims)]
        a1, a2 = random_state(rng, d), random_state(rng, d)
        b1, b2 = random_state(rng, d), random_state(rng, d)
        lam = float(lambdas[t % len(lambdas)])
        mixed = relative_entropy(mix(a1, a2, lam), mix(b1, b2, lam))
        bound = (1 - lam) * relative_entropy(a1, b1) + lam * relative_entropy(a2, b2)
        worst = max(worst, mixed - bound)
    return worst


def monotonicity_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    """Relative entropy contracts under precomposition with unital CP maps."""
    worst = 0.0
    for t in range(trials):
        d_in = dims[t % len(dims)]
        d_out = dims[(t + 1) % len(dims)]
        tau = random_unital_map(rng, d_in, d_out)
        a, b = random_state(rng, d_in), random_state(rng, d_in)
        s_after = relative_entropy(predual_apply(tau, a), predual_apply(tau, b))
        worst = max(worst, s_after - relative_entropy(a, b))
    return worst


def donald_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        phi = random_state(rng, d)
        pieces = [random_state(rng, d).scale(rng.random() + 0.1) for _ in range(3)]
        worst = max(worst, donald_residual(pieces, phi))
    return worst


def scaling_identity_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        omega, phi = random_state(rng, d), random_state(rng, d)
        lam = 0.05 + 0.95 * rng.random()
        lhs = relative_entropy(omega.scale(lam), phi)
        rhs = lam * math.log(lam) + lam * relative_entropy(omega, phi)
        worst = max(worst, abs(lhs - rhs))
    return worst


def decomposition_gap_suite(rng, dims=(2, 3), trials=200) -> float:
    """Average divergence of a decomposition from its sum stays below the entropy."""
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        phi = random_state(rng, d)
        sqrt_rho = power_on_support(phi.density, 0.5)
        raw = [random_density(rng, d) * (rng.random() + 0.1) for _ in range(3)]
        total = sum(raw)
        whiten = power_on_support(total, -0.5)
        pieces = [
            StateFunctional._trusted(
                sqrt_rho @ (whiten @ a @ whiten) @ sqrt_rho, phi.algebra
            )
            for a in raw
        ]
        worst = max(worst, -decomposition_entropy_gap(pieces, phi))
    return worst


def tracial_commutant_suite(rng, dims=(2, 3, 4), trials=100) -> float:
    """For the tracial state, conditioning by a commutant operator has entropy
    tr(a ln a)/d; exact in finite dimensions."""
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        a = random_density(rng, d) * d  # random positive, trace d
        psi = StateFunctional.from_density(a / d)
        w = np.linalg.eigvalsh(a)
        w = w[w > 1e-14]
        expected = float(np.sum(w * np.log(w))) / d
        got = relative_entropy(psi, StateFunctional.maximally_mixed(d))
        worst = max(worst, abs(got - expected))
    return worst


# ---------------------------------------------------------------------------
# measurement-information suites


def _random_instance(rng, dims):
    d = dims[int(rng.integers(len(dims)))]
    phi = random_state(rng, d)
    zeta = random_partition(
        rng, d, d, outcomes=int(rng.integers(2, 4)), kraus_per_map=int(rng.integers(1, 3))
    )
    return phi, zeta


def direct_sum_agreement_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    worst = 0.0
    for _ in range(trials):
        phi, zeta = _random_instance(rng, dims)
        a = information(phi, zeta).total_H
        b = information_via_direct_sum(phi, zeta)
        worst = max(worst, abs(a - b))
    return worst


def split_identity_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    worst = 0.0
    for _ in range(trials):
        phi, zeta = _random_instance(rng, dims)
        worst = max(worst, information(phi, zeta).split_residual)
    return worst


def _random_triple(rng, dims):
    d_a, d_b, d_c, d_d = (dims[int(rng.integers(len(dims)))] for _ in range(4))
    phi = random_state(rng, d_a)
    zeta = random_partition(rng, d_a, d_b, outcomes=2, kraus_per_map=1)
    eta = random_partition(rng, d_b, d_c, outcomes=2, kraus_per_map=1)
    beta = random_partition(rng, d_c, d_d, outcomes=2, kraus_per_map=1)
    return phi, zeta, eta, beta


def _split_term_suite(rng, dims, trials, field: str) -> float:
    """Worst excess of the joint `field` of an InformationReport over the
    first-step plus conditioned second-step values."""
    worst = 0.0
    for _ in range(trials):
        phi, zeta, eta, _ = _random_triple(rng, dims)
        joint = getattr(information(phi, compose(zeta, eta)), field)
        first = getattr(information(phi, zeta), field)
        second = getattr(information(zeta.total_predual(phi), eta), field)
        worst = max(worst, joint - (first + second))
    return worst


def subadditivity_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    """Joint information never exceeds first-step plus conditioned second-step."""
    return _split_term_suite(rng, dims, trials, "total_H")


def conditional_monotonicity_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    """Conditioning on a longer future never increases the conditional information."""
    worst = 0.0
    for _ in range(trials):
        phi, zeta, eta, beta = _random_triple(rng, dims)
        longer = conditional_information(phi, zeta, compose(eta, beta))
        shorter = conditional_information(phi, zeta, eta)
        worst = max(worst, longer - shorter)
    return worst


def classical_term_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    """Shannon part: joint weights against the product of the two marginals."""
    return _split_term_suite(rng, dims, trials, "classical_Hc")


def quantum_term_suite(rng, dims=(2, 3, 4), trials=200) -> float:
    """Divergence part: the same bound for the quantum terms."""
    return _split_term_suite(rng, dims, trials, "quantum_Hq")


def conjugation_invariance_suite(rng, dims=(2, 3, 4), trials=100) -> float:
    """Information is unchanged by automorphisms fixing the state."""
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        phi = StateFunctional.maximally_mixed(d)
        theta = Automorphism(random_unitary(rng, d))
        zeta = random_partition(rng, d, d, outcomes=2, kraus_per_map=2)
        a = information(phi, zeta).total_H
        b = information(phi, conjugate(theta, zeta)).total_H
        worst = max(worst, abs(a - b))
    return worst


def an_certificate_suite(rng, trials=50) -> float:
    """Monotone, nonnegative, information-bounded conditional sequences on random
    invariant systems of dimensions 2 and 3 in turn."""
    worst = 0.0
    for t in range(trials):
        d = 2 + t % 2
        u = random_unitary(rng, d)
        theta = Automorphism(u)
        phi = random_invariant_state(rng, u)
        zeta = random_partition(rng, d, d, outcomes=2, kraus_per_map=2)
        seq = an_sequence(phi, theta, zeta, 5)
        worst = max(worst, seq.monotonicity_residual)
        worst = max(worst, max(v - seq.information_bound for v in seq.values))
        worst = max(worst, max(-v for v in seq.values))
    return worst


# ---------------------------------------------------------------------------
# classical finite-space suites

_POINTS = 4  # every finite-space suite draws its instances on 4 points


def _random_space(rng) -> FiniteSpace:
    mu = rng.random(_POINTS) + 0.1
    return FiniteSpace(mu / mu.sum())


def classical_refinement_suite(rng, trials=100) -> float:
    """Joint information of two partitions dominates each single one."""
    worst = 0.0
    for _ in range(trials):
        space = _random_space(rng)
        zeta = random_function_partition(rng, _POINTS, cells=2)
        eta = random_function_partition(rng, _POINTS, cells=2)
        joint = classical_information(space, compose_function_partitions(zeta, eta))
        worst = max(worst, classical_information(space, zeta) - joint)
    return worst


def classical_conditional_monotonicity_suite(rng, trials=100) -> float:
    worst = 0.0
    for _ in range(trials):
        space = _random_space(rng)
        zeta = random_function_partition(rng, _POINTS, cells=2)
        eta = random_function_partition(rng, _POINTS, cells=2)
        beta = random_function_partition(rng, _POINTS, cells=2)
        longer = classical_conditional(space, zeta, compose_function_partitions(eta, beta))
        shorter = classical_conditional(space, zeta, eta)
        worst = max(worst, longer - shorter)
    return worst


def classical_transport_suite(rng, trials=100) -> float:
    """Conditional information is unchanged by a measure-preserving permutation."""
    worst = 0.0
    space = FiniteSpace.uniform(_POINTS)
    for _ in range(trials):
        perm = rng.permutation(_POINTS)
        zeta = random_function_partition(rng, _POINTS, cells=2)
        beta = random_function_partition(rng, _POINTS, cells=2)
        a = classical_conditional(space, zeta, beta)
        b = classical_conditional(
            space, transport_partition(zeta, perm), transport_partition(beta, perm)
        )
        worst = max(worst, abs(a - b))
    return worst


def classical_comparison_suite(rng, trials=100) -> float:
    worst = 0.0
    space = FiniteSpace.uniform(_POINTS)
    for _ in range(trials):
        perm = rng.permutation(_POINTS)
        zeta = random_function_partition(rng, _POINTS, cells=2)
        eta = random_function_partition(rng, _POINTS, cells=2)
        worst = max(worst, partition_comparison_bound(space, perm, zeta, eta, 3).residual)
    return worst


def embedding_agreement_suite(rng, trials=100) -> float:
    """Classical quantities equal their diagonal-embedded quantum counterparts."""
    worst = 0.0
    for _ in range(trials):
        space = _random_space(rng)
        zeta = random_function_partition(rng, _POINTS, cells=2)
        eta = random_function_partition(rng, _POINTS, cells=2)
        state, q_zeta = embed_diagonal(space, zeta)
        _, q_eta = embed_diagonal(space, eta)
        worst = max(
            worst,
            abs(classical_information(space, zeta) - information(state, q_zeta).total_H),
        )
        worst = max(
            worst,
            abs(
                classical_conditional(space, zeta, eta)
                - conditional_information(state, q_zeta, q_eta)
            ),
        )
    return worst


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


# (name, suite, tolerance, trial cap); the uncapped suites take the dims
# argument, the capped ones draw from their own dimensions or finite spaces
_SUITES = (
    ("lower_bound", lower_bound_suite, 1e-8, None),
    ("joint_convexity", joint_convexity_suite, 1e-8, None),
    ("monotonicity", monotonicity_suite, 1e-8, None),
    ("donald_identity", donald_suite, 1e-8, None),
    ("scaling_identity", scaling_identity_suite, 1e-9, None),
    ("decomposition_gap", decomposition_gap_suite, 1e-8, None),
    ("tracial_commutant", tracial_commutant_suite, 1e-8, None),
    ("direct_sum_agreement", direct_sum_agreement_suite, 1e-8, None),
    ("split_identity", split_identity_suite, 1e-8, None),
    ("subadditivity", subadditivity_suite, 1e-8, None),
    ("conditional_monotonicity", conditional_monotonicity_suite, 1e-8, None),
    ("classical_term", classical_term_suite, 1e-8, None),
    ("quantum_term", quantum_term_suite, 1e-8, None),
    ("conjugation_invariance", conjugation_invariance_suite, 1e-8, None),
    ("an_certificate", an_certificate_suite, 1e-8, 50),
    ("classical_refinement", classical_refinement_suite, 1e-8, 100),
    ("classical_conditional_monotonicity", classical_conditional_monotonicity_suite, 1e-8, 100),
    ("classical_transport", classical_transport_suite, 1e-9, 100),
    ("classical_comparison", classical_comparison_suite, 1e-8, 100),
    ("embedding_agreement", embedding_agreement_suite, 1e-8, 100),
)


def run_property_suite(dims=(2, 3, 4), trials: int = 200, seed: int = 0) -> dict:
    """Run every inequality family; returns {name: FamilyResult}."""
    dims = tuple(dims)
    if not dims:
        raise ValidationFailure("the property suite needs at least one dimension")
    results = {}
    for name, fn, tol, cap in _SUITES:
        rng = np.random.default_rng(seed)
        kwargs = {"trials": trials, "dims": dims} if cap is None else {"trials": min(trials, cap)}
        results[name] = FamilyResult(
            residual=float(fn(rng, **kwargs)), tolerance=tol, trials=kwargs["trials"]
        )
    return results
