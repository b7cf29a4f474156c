"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qde.capacity import (
    OptimizerConfig,
    dephasing_channel,
    depolarizing_channel,
    ensemble_channel,
    holevo_quantity,
    merged_capacity_report,
    optimize_Cn,
    optimize_Dn,
    proportional_code_channel,
    unit_input_state,
)
from qde.classical import (
    FiniteSpace,
    FunctionPartition,
    SymbolicShift,
    classical_conditional,
    classical_information,
    compose_function_partitions,
    embed_diagonal,
    markov_entropy_sequence,
    partition_comparison_bound,
    permutation_entropy_sequence,
    transport_partition,
)
from qde.dynamics import (
    admissibility_check,
    an_sequence,
    conditional_information,
    information,
    information_via_direct_sum,
)
from qde.partitions import Automorphism, conjugate, pinching_invariant_partition, vn_partition
from qde.properties import (
    conditional_monotonicity_suite,
    donald_suite,
    joint_convexity_suite,
    lower_bound_suite,
    monotonicity_suite,
    random_function_partition,
    random_invariant_state,
    random_partition,
    random_unitary,
    subadditivity_suite,
)
from qde.states import StateFunctional

from conftest import LN2, MINUS, P0, P1, PLUS
from oracles import shannon

MARKOV_RATE = 0.325083  # -sum pi_i P_ij ln P_ij for P = [[.9,.1],[.1,.9]]


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)")


def z_partition():
    return vn_partition([P0, P1])


def random_instances(seed, count, dims=(2, 3, 4)):
    rng = np.random.default_rng(seed)
    for t in range(count):
        d = dims[t % len(dims)]
        phi = random_invariant_state(rng, np.eye(d))
        zeta = random_partition(
            rng, d, d, outcomes=int(rng.integers(2, 5)), kraus_per_map=int(rng.integers(1, 3))
        )
        yield phi, zeta


def test_criterion_1_classical_reduction():
    with criterion(1, "diagonal states reduce to the Shannon formula", 1.0):
        zeta = z_partition()
        for p in np.arange(0.1, 0.95, 0.1):
            phi = StateFunctional.diagonal([p, 1 - p])
            got = information(phi, zeta).total_H
            assert abs(got - shannon([p, 1 - p])) <= 1e-9


def test_criterion_2_direct_sum_agreement():
    with criterion(2, "single-divergence representation matches the sum form", 30.0):
        for phi, zeta in random_instances(seed=2024, count=200):
            a = information(phi, zeta).total_H
            b = information_via_direct_sum(phi, zeta)
            assert abs(a - b) <= 1e-8


def test_criterion_3_split_identity():
    with criterion(3, "classical plus quantum parts reproduce the total", 30.0):
        for phi, zeta in random_instances(seed=2024, count=200):
            assert information(phi, zeta).split_residual <= 1e-8


def test_criterion_4_inequality_suites():
    with criterion(4, "relative-entropy and information inequality suites", 300.0):
        rng = np.random.default_rng(4)
        assert lower_bound_suite(rng, trials=200) <= 1e-8
        rng = np.random.default_rng(5)
        assert joint_convexity_suite(rng, trials=200) <= 1e-8
        rng = np.random.default_rng(6)
        assert monotonicity_suite(rng, trials=200) <= 1e-8
        rng = np.random.default_rng(7)
        assert donald_suite(rng, trials=200) <= 1e-8
        rng = np.random.default_rng(8)
        assert subadditivity_suite(rng, trials=200) <= 1e-8
        rng = np.random.default_rng(9)
        assert conditional_monotonicity_suite(rng, trials=200) <= 1e-8


def test_criterion_5_sequence_certificate():
    with criterion(5, "conditional sequences are monotone and bounded", 300.0):
        rng = np.random.default_rng(55)
        for t in range(50):
            d = 2 + (t % 2)
            u = random_unitary(rng, d)
            phi = random_invariant_state(rng, u)
            zeta = random_partition(rng, d, d, outcomes=2, kraus_per_map=2)
            seq = an_sequence(phi, Automorphism(u), zeta, depth=5)
            assert seq.monotonicity_residual <= 1e-8
            assert all(-1e-8 <= v <= seq.information_bound + 1e-8 for v in seq.values)


def test_criterion_6_admissibility():
    with criterion(6, "projective and pinching measurements are admissible", 60.0):
        rng = np.random.default_rng(66)
        for d in (2, 3):
            for _ in range(5):
                u = random_unitary(rng, d)
                projective = vn_partition([np.outer(u[:, k], u[:, k].conj()) for k in range(d)])
                phi = random_invariant_state(rng, np.eye(d))
                _, seq = admissibility_check(phi, projective, depth=1)
                assert abs(seq.values[0]) <= 1e-9
        phi = StateFunctional.diagonal([0.35, 0.65])
        pin = pinching_invariant_partition([P0, P1], phi)
        ok, seq = admissibility_check(phi, pin, depth=3)
        assert ok and seq.values[2] <= 1e-6


def test_criterion_7_transport_invariance():
    with criterion(7, "information is invariant under state-fixing unitaries", 120.0):
        rng = np.random.default_rng(77)
        for t in range(100):
            d = 2 + (t % 3)
            phi = StateFunctional.maximally_mixed(d)
            theta = Automorphism(random_unitary(rng, d))
            zeta = random_partition(rng, d, d, outcomes=2, kraus_per_map=2)
            a = information(phi, zeta).total_H
            b = information(phi, conjugate(theta, zeta)).total_H
            assert abs(a - b) <= 1e-8


def test_criterion_8_markov_ground_truth():
    with criterion(8, "Markov window dynamics hit the exact entropy rate", 60.0):
        P = np.array([[0.9, 0.1], [0.1, 0.9]])
        shift = SymbolicShift(P)
        seq = markov_entropy_sequence(shift, depth=10)
        for n, value in enumerate(seq.values, start=1):
            assert abs(value - MARKOV_RATE) <= 1e-6, f"n={n}"
            # embedded quantum path on the diagonal window algebra, up to
            # window 11 (dimension 2048), past the largest of the benchmark's mix
            space = shift.word_space(n + 1)
            present = shift.coordinate_indicator(n + 1, [n])
            past = shift.coordinate_indicator(n + 1, range(n))
            state, q_present = embed_diagonal(space, present)
            _, q_past = embed_diagonal(space, past)
            quantum = conditional_information(state, q_present, q_past)
            assert abs(quantum - value) <= 1e-8, f"n={n}"
        bernoulli = markov_entropy_sequence(SymbolicShift.bernoulli([0.5, 0.5]), depth=5)
        assert all(abs(v - LN2) <= 1e-9 for v in bernoulli.values)


def _zoo(seed=900):
    rng = np.random.default_rng(seed)
    entries = [
        (unit_input_state(), ensemble_channel([P0, P1], [0.5, 0.5])),
        (unit_input_state(), ensemble_channel([P0, PLUS], [0.5, 0.5])),
        (unit_input_state(), ensemble_channel([P0, P1, PLUS], [1 / 3, 1 / 3, 1 / 3])),
        (unit_input_state(), ensemble_channel([PLUS, MINUS], [0.25, 0.75])),
        (StateFunctional.maximally_mixed(2), depolarizing_channel(0.25)),
        (StateFunctional.maximally_mixed(2), depolarizing_channel(0.75)),
        (StateFunctional.diagonal([0.8, 0.2]), depolarizing_channel(0.5)),
        (StateFunctional.maximally_mixed(3), depolarizing_channel(0.4, dim=3)),
        (StateFunctional.maximally_mixed(2), dephasing_channel(0.3)),
        (StateFunctional.diagonal([0.7, 0.3]), dephasing_channel(0.9)),
        (StateFunctional.from_density(PLUS), dephasing_channel(0.5)),
        (StateFunctional.maximally_mixed(2), proportional_code_channel([0.5, 0.5], 2)),
        (StateFunctional.from_density(PLUS), proportional_code_channel([0.2, 0.3, 0.5], 2)),
    ]
    while len(entries) < 20:
        kets = []
        for _ in range(2):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            kets.append(np.outer(v, v.conj()))
        p = rng.random() * 0.6 + 0.2
        entries.append((unit_input_state(), ensemble_channel(kets, [p, 1 - p])))
    return entries


def test_criterion_9_capacity():
    with criterion(9, "capacity bounds, grid oracle, and the Holevo identity", 600.0):
        phi = unit_input_state()
        config = OptimizerConfig(restarts=6, max_iterations=300, seed=9)

        orthogonal = ensemble_channel([P0, P1], [0.5, 0.5])
        rep_c = optimize_Cn(phi, orthogonal, 1, config)
        rep_d = optimize_Dn(phi, orthogonal, 1, config)
        assert rep_c.C_n_lower >= LN2 - 1e-4
        assert abs(rep_d.D_n_lower - LN2) <= 1e-4

        # {|0>, |+>}: exhaustive 1e-4-resolution grid over real rotated bases
        mixed = ensemble_channel([P0, PLUS], [0.5, 0.5])
        chi = holevo_quantity(phi, mixed)
        assert abs(chi - 0.4165) <= 1e-4
        assert abs(chi - information(phi, mixed).total_H) <= 1e-8
        best_ic = -1.0
        rho = [P0, PLUS]
        for a in np.arange(0.0, math.pi / 2, 1e-4):
            basis = (
                np.array([math.cos(a), math.sin(a)]),
                np.array([-math.sin(a), math.cos(a)]),
            )
            q = [
                [0.5 * float(np.real(v @ r @ v)) for v in basis]
                for r in rho
            ]
            ic = LN2 + shannon(np.sum(q, axis=0)) - shannon(np.ravel(q))
            best_ic = max(best_ic, ic)
        rep_c = optimize_Cn(phi, mixed, 1, config)
        rep_d = optimize_Dn(phi, mixed, 1, config)
        assert abs(rep_d.D_n_lower - best_ic) <= 1e-4
        assert abs(rep_c.C_n_lower - chi) <= 1e-4  # flat optimum equals chi

        sweep_config = OptimizerConfig(restarts=4, max_iterations=200, seed=9)
        for state, channel in _zoo():
            rep = merged_capacity_report(state, channel, 1, sweep_config)
            assert rep.D_n_lower >= -1e-8
            assert rep.D_n_lower <= rep.C_n_lower + 1e-8
            assert rep.C_n_lower <= rep.H_upper + 1e-8
            holevo_quantity(state, channel)  # raises beyond 1e-8 disagreement


def test_criterion_10_classical_suite():
    with criterion(10, "finite-space partition relations and exhaustion", 120.0):
        rng = np.random.default_rng(10)
        space = FiniteSpace.uniform(4)
        for _ in range(100):
            zeta = random_function_partition(rng, 4, cells=2)
            eta = random_function_partition(rng, 4, cells=2)
            beta = random_function_partition(rng, 4, cells=2)
            joint = classical_information(space, compose_function_partitions(zeta, eta))
            assert joint >= classical_information(space, zeta) - 1e-8
            longer = classical_conditional(space, zeta, compose_function_partitions(eta, beta))
            assert longer <= classical_conditional(space, zeta, eta) + 1e-8
            perm = rng.permutation(4)
            moved = classical_conditional(
                space, transport_partition(zeta, perm), transport_partition(beta, perm)
            )
            assert abs(moved - classical_conditional(space, zeta, beta)) <= 1e-8
            assert partition_comparison_bound(space, perm, zeta, eta, 3).residual <= 1e-8
        # periodic dynamics exhaust indicator partitions within the period
        cyclic = np.array([1, 2, 3, 0])
        zeta = FunctionPartition.indicator([[0, 1], [2, 3]], 4)
        seq = permutation_entropy_sequence(space, cyclic, zeta, depth=4)
        assert all(abs(v) <= 1e-9 for v in seq.values[3:])
        swap = np.array([0, 2, 1, 3])
        seq = permutation_entropy_sequence(space, swap, zeta, depth=3)
        assert all(abs(v) <= 1e-9 for v in seq.values[1:])
