"""Functionals held as their diagonals against their dense twins, bit for bit.

A functional on an all-1-block algebra built by `from_density` or by qde's
own operations holds only its complex diagonal.  Its dense twin is the same
density held as a `d x d` array on the same algebra, which is how every such
functional was held before; every quantity computed from the two must be
equal, not only close.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qde import defaults, partitions
from qde.classical import FiniteSpace, SymbolicShift, embed_diagonal
from qde.dynamics import conditional_information, information, information_via_direct_sum
from qde.errors import DimensionMismatch, NotPositiveSemidefinite, ValidationFailure
from qde.linalg import BlockAlgebra
from qde.partitions import KrausMap, Partition, _Diagonals, compose
from qde.states import (
    DivergenceEngine,
    StateFunctional,
    mix,
    relative_entropy_report,
    total_functional,
    trace_distance,
    von_neumann_entropy,
)

from conftest import PLUS


def _held(values) -> StateFunctional:
    values = np.asarray(values, dtype=complex)
    phi = StateFunctional.from_density(np.diag(values), BlockAlgebra.commutative(values.size))
    assert phi._diagonal is not None and "density" not in vars(phi)
    return phi


def _twin(phi: StateFunctional) -> StateFunctional:
    """The same density held densely on the same algebra."""
    density = np.diag(phi._diagonal)
    density.setflags(write=False)
    twin = StateFunctional(phi.algebra, density)
    assert twin._diagonal is None
    return twin


def _dense_diagonal_predual(weights, omega):
    """`_diagonal_predual` with its image held densely, as before functionals held diagonals."""
    out = np.diag((weights * omega.density.diagonal().real).astype(complex))
    out.setflags(write=False)
    return StateFunctional(omega.algebra, out)


def _entries(rng, d, *, zeros=True, weight=1.0):
    v = rng.random(d) + 0.01
    if zeros:
        v[rng.random(d) < 0.3] = 0.0
        v[rng.integers(d)] = 0.5
    return weight * v / v.sum()


def _reports_equal(a, b):
    return dataclasses.astuple(a) == dataclasses.astuple(b)


def _information_equal(a, b):
    return (a.total_H, a.classical_Hc, a.quantum_Hq, a.infinite_flag, a.weights) == (
        b.total_H, b.classical_Hc, b.quantum_Hq, b.infinite_flag, b.weights
    )


def test_density_is_built_once_on_first_read_and_equals_the_twin(rng):
    for d in (2, 3, 7):
        phi = _held(_entries(rng, d, weight=0.6))
        twin = _twin(phi)
        assert phi.dim == twin.dim == d
        assert phi.weight == twin.weight
        assert "density" not in vars(phi)
        density = phi.density
        assert density is phi.density and not density.flags.writeable
        assert np.array_equal(density, twin.density) and density.dtype == complex
        assert np.array_equal(density, density.conj().T)


def test_scale_sum_and_mix_equal_the_dense_twins(rng):
    full = StateFunctional.from_density(PLUS * 0.4 + np.diag([0.3, 0.3]).astype(complex))
    for t in range(40):
        d = 2 + t % 5
        weight = 1.0 if t % 2 else 0.37  # sub-normalized operands too
        parts = [_held(_entries(rng, d, weight=weight)) for _ in range(1 + t % 4)]
        twins = [_twin(p) for p in parts]
        for factor in (0.0, 1.0, 0.37, 1.0 / 3e-14, float(rng.random())):
            got, want = parts[0].scale(factor), twins[0].scale(factor)
            assert got._diagonal is not None and got.algebra is parts[0].algebra
            assert np.array_equal(got.density, want.density) and got.weight == want.weight
        got, want = total_functional(parts), total_functional(twins)
        assert got._diagonal is not None and got.algebra is parts[0].algebra
        assert np.array_equal(got.density, want.density) and got.weight == want.weight
        lam = float(rng.random())
        got, want = mix(parts[0], parts[-1], lam), mix(twins[0], twins[-1], lam)
        assert got._diagonal is not None
        assert np.array_equal(got.density, want.density) and got.weight == want.weight
        if d == 2:  # mixed commutative and full operands land on the full algebra
            for got, want in (
                (total_functional([parts[0], full]), total_functional([twins[0], full])),
                (mix(full, parts[0], lam), mix(full, twins[0], lam)),
            ):
                assert got._diagonal is None and got.algebra.blocks == (2,)
                assert np.array_equal(got.density, want.density)


def test_divergence_reports_equal_the_dense_twins(rng):
    decisions = set()
    full = StateFunctional.from_density(0.5 * PLUS + np.diag([0.25, 0.25]).astype(complex))
    for t in range(120):
        d = 2 + t % 6
        omega, phi = _entries(rng, d, weight=0.8 if t % 3 else 1.0), _entries(rng, d)
        if t % 4 == 0:  # argument mass off the reference support: a +inf decision
            phi[0], omega[0] = 0.0, 0.2
        omega, phi = _held(omega), _held(phi)
        fast = relative_entropy_report(omega, phi)
        for a, b in ((omega, _twin(phi)), (_twin(omega), phi), (_twin(omega), _twin(phi))):
            assert _reports_equal(fast, relative_entropy_report(a, b))
        decisions.add(fast.finite)
        if d == 2:  # the full-reference path reads the dense density
            assert _reports_equal(
                relative_entropy_report(omega, full), relative_entropy_report(_twin(omega), full)
            )
            assert _reports_equal(
                relative_entropy_report(full, phi), relative_entropy_report(full, _twin(phi))
            )
    assert decisions == {True, False}
    zero, omega = _held(np.zeros(3)), _held([0.0, 0.5, 0.5])
    for engine in (DivergenceEngine(zero), DivergenceEngine(_twin(zero))):  # degenerate
        assert _reports_equal(engine.report(omega), engine.report(_twin(omega)))
        assert engine.report(omega).value == math.inf


def test_entropy_evaluate_and_trace_distance_equal_the_dense_twins(rng):
    for t in range(30):
        d = 2 + t % 6
        phi, psi = _held(_entries(rng, d)), _held(_entries(rng, d, weight=0.5))
        assert von_neumann_entropy(phi) == von_neumann_entropy(_twin(phi))
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x = x + x.conj().T
        assert phi.evaluate(x) == _twin(phi).evaluate(x)
        assert trace_distance(phi, psi) == trace_distance(_twin(phi), _twin(psi))


def _markov_instance(length, p=((0.7, 0.3), (0.2, 0.8))):
    shift = SymbolicShift(np.array(p))
    space = shift.word_space(length)
    state, q_present = embed_diagonal(space, shift.coordinate_indicator(length, [length - 1]))
    _, q_past = embed_diagonal(space, shift.coordinate_indicator(length, range(length - 1)))
    return state, q_present, q_past


def test_embed_diagonal_builds_its_state_from_the_measure():
    shift = SymbolicShift(np.array([[0.7, 0.3], [0.2, 0.8]]))
    space = shift.word_space(8)
    zeta = shift.coordinate_indicator(8, [7])
    embed_diagonal(space, zeta)  # the shared 256-point algebra exists from here on
    tracemalloc.start()
    try:
        state = StateFunctional.commutative(space.measure)
        state_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        embedded, part = embed_diagonal(space, zeta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 256 x 256 complex density alone takes 1 MB
    assert state_peak < 0.1e6
    # the rest is the real 256 x 256 unit image whose eigvalsh checks each map
    assert peak < 0.1e6 + 256 * 256 * 8
    reference = StateFunctional.from_density(
        np.diag(space.measure.astype(complex)), BlockAlgebra.commutative(256)
    )
    for phi in (state, embedded):
        assert phi.algebra is reference.algebra and "density" not in vars(phi)
        assert np.array_equal(phi._diagonal, reference._diagonal)
        assert not phi._diagonal.flags.writeable
    assert part.size == 2 and state.weight == reference.weight


def test_commutative_states_fail_closed_as_from_density_does():
    for bad in ([0.5, math.nan], [0.5, math.inf]):
        with pytest.raises(ValidationFailure, match="non-finite"):
            StateFunctional.commutative(bad)
    shift = SymbolicShift(np.array([[0.5, 0.5], [0.5, 0.5]]))
    measure = shift.word_space(2).measure.copy()
    measure[1] = math.nan
    space = FiniteSpace(measure)  # its own checks compare against NaN and pass it
    with pytest.raises(ValidationFailure, match="non-finite"):
        embed_diagonal(space, shift.coordinate_indicator(2, [1]))
    for shape in (np.eye(2) / 2, np.array(1.0)):
        with pytest.raises(DimensionMismatch):
            StateFunctional.commutative(shape)
    for negative in ([1.0 + 1e-9, -1e-9], [0.5, 0.5, -1e-6]):
        with pytest.raises(NotPositiveSemidefinite):
            StateFunctional.commutative(negative)
    # within the clamp tolerance the diagonal is kept as given, as from_density keeps it
    for values in ([1.0 + 1e-11, -1e-11], [0.25, 0.75]):
        dense = np.diag(values).astype(complex)
        want = StateFunctional.from_density(dense, BlockAlgebra.commutative(len(values)))
        assert np.array_equal(StateFunctional.commutative(values)._diagonal, want._diagonal)
    # one point is a full algebra: the dense path, as from_density takes it
    single = StateFunctional.commutative([1.0])
    assert single._diagonal is None and np.array_equal(single.density, np.eye(1))


def _zero_weight_partition(d):
    """Two exactly diagonal outcomes, the first of them living on point 0 only."""
    first = np.zeros(d)
    first[0] = 1.0
    rows = [first, np.sqrt(1.0 - first**2)]
    return Partition(tuple(KrausMap(_Diagonals(np.array([r], dtype=complex))) for r in rows))


def test_information_quantities_equal_the_dense_path(rng, monkeypatch):
    cases = [_markov_instance(4), _markov_instance(5, ((0.9, 0.1), (0.4, 0.6)))]
    state = _held(np.r_[0.0, _entries(rng, 5, zeros=False)])  # point 0 is dead
    cases.append((state, _zero_weight_partition(6), _zero_weight_partition(6)))
    fast = []
    for state, zeta, eta in cases:
        joint = compose(zeta, eta)
        assert all(b._diagonal is not None for b in joint.branch_preduals(state))
        fast.append((
            information(state, joint),
            conditional_information(state, zeta, eta),
            information_via_direct_sum(state, joint),
        ))
    assert 0.0 in fast[-1][0].weights.values()  # a zero-weight outcome
    # the same quantities with every diagonal image held densely
    monkeypatch.setattr(partitions, "_diagonal_predual", _dense_diagonal_predual)
    for (state, zeta, eta), (info, cond, direct) in zip(cases, fast):
        joint = compose(zeta, eta)
        assert all(b._diagonal is None for b in joint.branch_preduals(_twin(state)))
        assert _information_equal(info, information(_twin(state), joint))
        assert cond == conditional_information(_twin(state), zeta, eta)
        assert direct == information_via_direct_sum(_twin(state), joint)


def test_from_density_on_an_all_1_block_algebra_fails_closed():
    algebra = BlockAlgebra.commutative(3)
    assert BlockAlgebra.commutative(3) is algebra
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    leak = rho.copy()
    leak[0, 2] = leak[2, 0] = 2 * defaults.HERMITICITY_TOL
    # the norm of the off-block entries, as the block mask computes it
    off = np.linalg.norm(np.where(np.eye(3, dtype=bool), 0.0, leak))
    with pytest.raises(ValidationFailure, match=f"^density has off-block mass {off:.3e}$"):
        StateFunctional.from_density(leak, algebra)
    negative = np.diag([0.6, 0.4 + 2 * defaults.NEGATIVE_EIGENVALUE_TOL,
                        -2 * defaults.NEGATIVE_EIGENVALUE_TOL]).astype(complex)
    with pytest.raises(NotPositiveSemidefinite, match="below"):
        StateFunctional.from_density(negative, algebra)
    nan = rho.copy()
    nan[1, 1] = math.nan
    with pytest.raises(ValidationFailure, match="non-finite"):
        StateFunctional.from_density(nan, algebra)
    with pytest.raises(DimensionMismatch):
        StateFunctional.from_density(rho, BlockAlgebra.commutative(4))
    # within the tolerances the check passes and the diagonal is held
    leak[0, 2] = leak[2, 0] = 0.5 * defaults.HERMITICITY_TOL
    held = StateFunctional.from_density(leak, algebra)
    assert np.array_equal(held._diagonal, rho.diagonal()) and "_mask" not in vars(algebra)


def test_information_at_window_7_keeps_no_dense_branches():
    state, q_present, q_past = _markov_instance(7)
    joint = compose(q_present, q_past)
    assert state.dim == 128 and joint.size == 128
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = information(state, joint)
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # dense 128 x 128 branch densities take about 33 MB at the peak
    assert grown < 2 * 2**20
    assert not report.infinite_flag and math.isfinite(report.total_H)
