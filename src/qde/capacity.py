"""Channels, codes, measured information gain, and finite-block capacities.

A channel is given by its code: a partition (`Partition`) of the channel
into sub-channels (signal letters) whose sum is the channel, so the code
alone determines it; the partition's unit-sum check makes the sum unital.
Every function here that takes a channel takes its code.  The information a
measurement eta on the output extracts about the code is

    I(code | eta)  = H(code) + H_after(eta) - H(code then eta),
    Ic(code | eta) = the same combination of the classical Shannon parts,

both nonnegative and bounded by H(code).  The finite-block capacities C_n
and D_n are suprema of I and Ic over measurements on the n-fold product
output; this module reports lower bounds from a deterministically seeded
multi-restart simplex search over rotated projective measurements that
steps on their outcome weights, each bound certified by `information_gain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from . import defaults
from .dynamics import information
from .errors import (
    DimensionMismatch,
    PropertyViolation,
    ResourceCapExceeded,
    ValidationFailure,
)
from .linalg import _eigh, as_hermitian, dagger, hermitian_basis
from .partitions import KrausMap, Partition, compose, partition_power, vn_partition
from .states import StateFunctional, product_state, total_functional, von_neumann_entropy


def unit_input_state() -> StateFunctional:
    """The trivial state on the one-dimensional input algebra of a preparation."""
    return StateFunctional.from_density(np.eye(1, dtype=complex))


def ensemble_channel(densities, probs) -> Partition:
    """Code of the preparation channel emitting density i with probability p_i.

    The input algebra is one-dimensional; letter i has Kraus columns
    sqrt(p_i * s_a) u_a over the spectral decomposition of its density.
    """
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-10:
        raise ValidationFailure("ensemble probabilities must be nonnegative and sum to 1")
    if len(densities) != len(probs):
        raise DimensionMismatch(f"{len(densities)} densities but {len(probs)} probabilities")
    maps = []
    for i, (dens, p) in enumerate(zip(densities, probs)):
        rho = np.asarray(dens, dtype=complex)
        as_hermitian(rho)  # square, finite and hermitian, else it raises
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > 1e-10:
            raise ValidationFailure(f"ensemble member {i} has trace {tr:.12f}")
        w, v = np.linalg.eigh(rho)
        kraus = [
            np.sqrt(p * lam) * v[:, [j]]
            for j, lam in enumerate(w)
            if lam > 1e-14
        ]
        if not kraus:
            kraus = [np.zeros((rho.shape[0], 1), dtype=complex)]
        maps.append(KrausMap(tuple(kraus), label=i))
    return Partition(tuple(maps))


_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def depolarizing_channel(p: float, dim: int = 2) -> Partition:
    """Canonical code of the depolarizing channel.

    For a qubit the code is the four weighted Pauli conjugations; in general
    it splits into the surviving identity part and the trace part.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationFailure("depolarizing strength must lie in [0, 1]")
    if dim == 2:
        weights = [1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0]
        maps = tuple(
            KrausMap((np.sqrt(w) * _PAULI[s],), label=s)
            for s, w in zip("ixyz", weights)
        )
        return Partition(maps)
    keep = KrausMap((np.sqrt(1.0 - p) * np.eye(dim, dtype=complex),), label="keep")
    units = []
    for j in range(dim):
        for k in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = np.sqrt(p / dim)
            units.append(e)
    return Partition((keep, KrausMap(tuple(units), label="mix")))


def dephasing_channel(p: float) -> Partition:
    """Two-letter flip/no-flip code of the qubit phase-flip channel."""
    if not 0.0 <= p <= 1.0:
        raise ValidationFailure("dephasing strength must lie in [0, 1]")
    maps = (
        KrausMap((np.sqrt(1.0 - p) * _PAULI["i"],), label="keep"),
        KrausMap((np.sqrt(p) * _PAULI["z"],), label="flip"),
    )
    return Partition(maps)


def proportional_code_channel(weights, dim: int) -> Partition:
    """Proportional code of the identity channel; carries zero information."""
    return Partition.proportional(weights, dim)


def state_power(phi: StateFunctional, n: int) -> StateFunctional:
    out = phi
    for _ in range(n - 1):
        out = product_state(out, phi)
    return out


def _gain_from_parts(base, after, phi, code, eta):
    measured = information(after, eta)
    joint = information(phi, compose(code, eta))
    if base.infinite_flag or measured.infinite_flag or joint.infinite_flag:
        raise ValidationFailure("information gain undefined: infinite divergence encountered")
    gain = base.total_H + measured.total_H - joint.total_H
    gain_classical = base.classical_Hc + measured.classical_Hc - joint.classical_Hc
    return gain, gain_classical


def information_gain(
    phi: StateFunctional, code: Partition, eta: Partition
) -> tuple[float, float]:
    """(I, Ic): total and classical information the measurement gains about the code."""
    base = information(phi, code)
    after = code.total_predual(phi)
    return _gain_from_parts(base, after, phi, code, eta)


def _gain_from_weights(base, branches: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """(I, Ic) of the code then the rank-1 projective measurement onto the
    columns u_j of `u`, from the weights q_ij = <u_j|B_i|u_j>; `branches`
    stacks the letters' output branches B_i and `base` is the code information.

    Letter i then outcome j leaves q_ij P_j (P_j = |u_j><u_j|), the output
    measured alone leaves a_j P_j (a_j = sum_i q_ij), and both have the mean
    M = sum_j a_j P_j.  Each normalized branch is the pure P_j, at divergence
    -ln a_j from M, so H_after = H^c_after = sum_j a_j (-ln a_j), the joint
    has H = sum_ij q_ij (-ln a_j) and H^c = sum_ij q_ij (-ln q_ij), and
        I  = base.total_H + sum_j a_j (-ln a_j) - sum_ij q_ij (-ln a_j),
        Ic = base.classical_Hc + sum_j a_j (-ln a_j) - sum_ij q_ij (-ln q_ij).
    As in `information`, a weight at or below WEIGHT_FLOOR contributes 0, and
    a live outcome with a_j <= SUPPORT_CUTOFF max a is off the support of M:
    its divergence is infinite and the gain undefined.  The sums run over
    Python floats: q has a few dozen entries, fewer than one numpy call costs.
    """
    q = (u.conj() * (branches @ u)).sum(axis=1).real.tolist()
    a = [sum(column) for column in zip(*q)]
    floor, edge = defaults.WEIGHT_FLOOR, defaults.SUPPORT_CUTOFF * max(a)
    if base.infinite_flag or any(floor < a_j <= edge for a_j in a):
        raise ValidationFailure("information gain undefined: infinite divergence encountered")
    minus_log_a = [-math.log(a_j) if a_j > floor else 0.0 for a_j in a]
    h_after = sum(a_j * m_j for a_j, m_j in zip(a, minus_log_a))
    live = [(q_ij, m_j) for row in q for q_ij, m_j in zip(row, minus_log_a) if q_ij > floor]
    joint = sum(q_ij * m_j for q_ij, m_j in live)
    joint_c = -sum(q_ij * math.log(q_ij) for q_ij, _ in live)
    return base.total_H + h_after - joint, base.classical_Hc + h_after - joint_c


def _generator(params: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """H = sum_k params[k] basis[k] over a (k, d, d) basis stack, as one product."""
    return (params @ basis.reshape(len(basis), -1)).reshape(basis.shape[1:])


def _rotation(params: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """exp(i H) of the hermitian generator H, from its spectral decomposition."""
    w, v = _eigh(_generator(params, basis))
    return (v * np.exp(1j * w)) @ dagger(v)


def projective_measurement(params: np.ndarray, basis) -> Partition:
    """Rank-1 projective measurement in the standard basis rotated by exp(i H).

    H = sum_k params[k] basis[k], with `basis` the traceless hermitian basis
    of the output algebra (`hermitian_basis(dim)`) as a list or a stack.
    """
    u = _rotation(params, np.asarray(basis))
    projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(len(u))]
    return vn_partition(projs)


def product_parameters(params_a: np.ndarray, params_b: np.ndarray, dim: int) -> np.ndarray:
    """Orbit parameters whose unitary is the tensor product of two member unitaries."""
    basis_small = np.array(hermitian_basis(dim))
    gen_a, gen_b = (_generator(p, basis_small) for p in (params_a, params_b))
    big = np.kron(gen_a, np.eye(dim)) + np.kron(np.eye(dim), gen_b)
    return np.array([np.trace(f @ big).real for f in hermitian_basis(dim * dim)])


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 20
    max_iterations: int = 500
    seed: int = 0
    extra_initial_points: tuple = ()


@dataclass(frozen=True)
class CapacityReport:
    """Finite-block lower bounds with optimizer provenance.

    Bounds come from evaluated measurements only, so the chain
    0 <= D_n <= C_n <= H_upper holds by construction up to floating noise.
    `converged` is false when a search's best restart stopped at its
    iteration or evaluation limit instead of meeting its tolerances.
    """

    n: int
    C_n_lower: float
    D_n_lower: float
    best_measurement_parameters: dict
    H_upper: float
    converged: bool


def _search(objective, nparams: int, config: OptimizerConfig):
    """Deterministic multi-restart Nelder-Mead ascent.

    Returns (value, params, converged); converged is whether the best
    restart met its tolerances.
    """
    rng = np.random.default_rng(config.seed)
    starts = [np.zeros(nparams)]
    starts += [np.asarray(p, dtype=float) for p in config.extra_initial_points]
    starts += [
        rng.uniform(-np.pi, np.pi, size=nparams) for _ in range(max(config.restarts - 1, 0))
    ]

    def run(start):
        res = scipy.optimize.minimize(
            lambda x: -objective(x),
            start,
            method="Nelder-Mead",
            options={
                "maxiter": config.max_iterations,
                "xatol": 1e-7,
                "fatol": 1e-11,
            },
        )
        return float(-res.fun), np.asarray(res.x), bool(res.success)

    results = [run(s) for s in starts]
    best_idx = max(range(len(results)), key=lambda i: (results[i][0], -i))
    return results[best_idx]


def _optimize(
    phi: StateFunctional,
    code: Partition,
    n: int,
    config: OptimizerConfig,
    which: str,
) -> CapacityReport:
    if n < 1:
        raise ValidationFailure("block length must be at least 1")
    if n > 2:
        raise ResourceCapExceeded(
            f"block length {n} rejected (output dimension {code.dim_out**n})"
        )
    phi_n = state_power(phi, n)
    code_n = partition_power(code, n)
    base = information(phi_n, code_n)
    # at n = 1 the powers are phi and code themselves, so base is the code information
    h_upper = base.total_H if n == 1 else n * information(phi, code).total_H
    basis = np.array(hermitian_basis(code_n.dim_out))
    index = 0 if which == "information" else 1
    branches = np.stack([m.predual(phi_n.density) for m in code_n.maps])

    def objective(params):
        return _gain_from_weights(base, branches, _rotation(params, basis))[index]

    value, params, converged = _search(objective, len(basis), config)
    # the certificate: the winner evaluated once through the full library path
    after = code_n.total_predual(phi_n)
    gains = _gain_from_parts(base, after, phi_n, code_n, projective_measurement(params, basis))
    if abs(gains[index] - value) > 1e-8:
        raise PropertyViolation(
            f"searched gain {value:.12f} disagrees with its certified value {gains[index]:.12f}"
        )
    return CapacityReport(
        n=n,
        C_n_lower=gains[0],
        D_n_lower=gains[1],
        best_measurement_parameters={which: params.tolist()},
        H_upper=h_upper,
        converged=converged,
    )


def optimize_Cn(
    phi: StateFunctional,
    code: Partition,
    n: int = 1,
    config: OptimizerConfig = OptimizerConfig(),
) -> CapacityReport:
    """Lower bound on C_n: best total gain found, classical gain cross-evaluated."""
    return _optimize(phi, code, n, config, "information")


def optimize_Dn(
    phi: StateFunctional,
    code: Partition,
    n: int = 1,
    config: OptimizerConfig = OptimizerConfig(),
) -> CapacityReport:
    """Lower bound on D_n: best classical gain found, total gain cross-evaluated."""
    return _optimize(phi, code, n, config, "classical")


def merged_capacity_report(
    phi: StateFunctional,
    code: Partition,
    n: int = 1,
    config: OptimizerConfig = OptimizerConfig(),
) -> CapacityReport:
    """Run both searches and merge so each bound is the tightest one evaluated."""
    rc = optimize_Cn(phi, code, n, config)
    rd = optimize_Dn(phi, code, n, config)
    return CapacityReport(
        n=n,
        C_n_lower=max(rc.C_n_lower, rd.C_n_lower),
        D_n_lower=max(rc.D_n_lower, rd.D_n_lower),
        best_measurement_parameters={
            **rc.best_measurement_parameters,
            **rd.best_measurement_parameters,
        },
        H_upper=rc.H_upper,
        converged=rc.converged and rd.converged,
    )


@dataclass(frozen=True)
class CapacityRateReport:
    reports: dict
    superadditivity_residual: float


def capacity_rate(
    phi: StateFunctional,
    code: Partition,
    n_max: int = 2,
    config: OptimizerConfig = OptimizerConfig(),
) -> CapacityRateReport:
    """Capacity reports for n = 1..n_max with the product-measurement consistency check.

    The n = 2 search is seeded with the product of the best n = 1
    measurements, so C_2 >= 2 C_1 - 2e-4 must hold; a violation is an
    optimizer failure and raises.
    """
    if n_max < 1:
        raise ValidationFailure(f"block length must be at least 1, got {n_max}")
    reports = {}
    prev_params = None
    for n in range(1, n_max + 1):
        cfg = config
        if n == 2 and prev_params is not None:
            seeds = [product_parameters(p, p, code.dim_out) for p in prev_params.values()]
            cfg = replace(config, extra_initial_points=tuple(seeds))
        report = merged_capacity_report(phi, code, n, cfg)
        reports[n] = report
        prev_params = report.best_measurement_parameters
    residual = 0.0
    if n_max >= 2:
        residual = max(0.0, 2.0 * reports[1].C_n_lower - reports[2].C_n_lower)
        if residual > 2e-4:
            raise PropertyViolation(
                f"C_2 fell below twice C_1 by {residual:.3e}; product seeding failed"
            )
    return CapacityRateReport(reports=reports, superadditivity_residual=residual)


@dataclass(frozen=True)
class SweepReport:
    """Per-entry capacity bounds over a user-supplied list of (state, code)
    candidates.  The best values bound the suprema over states and codes from
    below; they are never the suprema themselves."""

    reports: tuple
    best_C_lower: float
    best_D_lower: float


def capacity_sweep(entries, config: OptimizerConfig = OptimizerConfig()) -> SweepReport:
    """Evaluate n = 1 merged capacity reports over explicit (state, code) pairs."""
    reports = tuple(merged_capacity_report(phi, code, 1, config) for phi, code in entries)
    if not reports:
        raise ValidationFailure("empty sweep")
    return SweepReport(
        reports=reports,
        best_C_lower=max(r.C_n_lower for r in reports),
        best_D_lower=max(r.D_n_lower for r in reports),
    )


def holevo_quantity(phi: StateFunctional, code: Partition) -> float:
    """chi = S(mean output) - sum_i p_i S(output_i); equals the code information
    on a full matrix algebra, and that identity is verified to 1e-8."""
    branches = code.branch_preduals(phi)
    chi = von_neumann_entropy(total_functional(branches))
    for b in branches:
        p = b.weight
        if p <= defaults.WEIGHT_FLOOR:
            continue
        chi -= p * von_neumann_entropy(b.scale(1.0 / p))
    direct = information(phi, code).total_H
    if abs(chi - direct) > 1e-8:
        raise PropertyViolation(
            f"Holevo quantity {chi:.12f} disagrees with the code information {direct:.12f}"
        )
    return chi
