import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qde.errors import DimensionMismatch, NotPositiveSemidefinite, ValidationFailure
from qde.states import (
    StateFunctional,
    decomposition_entropy_gap,
    donald_residual,
    mix,
    relative_entropy,
    relative_entropy_report,
    trace_distance,
    von_neumann_entropy,
)

from conftest import LN2, PLUS, SX, SZ
from oracles import rel_entropy as oracle_rel_entropy


def diag_state(*probs):
    return StateFunctional.diagonal(probs)


def test_evaluate():
    assert StateFunctional.maximally_mixed(2).evaluate(SZ) == pytest.approx(0.0)
    assert diag_state(1, 0).evaluate(np.diag([3.0, 7.0])) == pytest.approx(3.0)
    assert StateFunctional.from_density(PLUS).evaluate(SX) == pytest.approx(1.0)


def test_evaluate_linear(rng):
    phi = StateFunctional.maximally_mixed(3)
    x = rng.normal(size=(3, 3))
    x = (x + x.T).astype(complex)
    y = rng.normal(size=(3, 3))
    y = (y + y.T).astype(complex)
    assert phi.evaluate(2.0 * x + y) == pytest.approx(2.0 * phi.evaluate(x) + phi.evaluate(y))
    assert phi.evaluate(np.eye(3, dtype=complex)) == pytest.approx(phi.weight)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(diag_state(1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(StateFunctional.maximally_mixed(2)) == pytest.approx(LN2)
    # scalar arithmetic: -0.9 ln 0.9 - 0.1 ln 0.1
    expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert von_neumann_entropy(diag_state(0.9, 0.1)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.325083, abs=1e-6)


def test_von_neumann_entropy_requires_normalized():
    with pytest.raises(ValidationFailure):
        von_neumann_entropy(diag_state(0.5, 0.25))


def test_relative_entropy_basic():
    phi = StateFunctional.from_density(PLUS)
    assert relative_entropy(phi, phi) == pytest.approx(0.0, abs=1e-12)
    # by the trace formula: 1*(ln 1 - ln 1/2) = ln 2
    assert relative_entropy(diag_state(1, 0), diag_state(0.5, 0.5)) == pytest.approx(LN2)
    assert relative_entropy(diag_state(0.5, 0.5), diag_state(1, 0)) == math.inf


def test_relative_entropy_margins():
    rep = relative_entropy_report(diag_state(0.5, 0.5), diag_state(1, 0))
    assert not rep.finite
    assert rep.off_support_mass == pytest.approx(0.5)
    rep = relative_entropy_report(diag_state(1, 0), diag_state(0.5, 0.5))
    assert rep.finite
    assert rep.smallest_retained_reference == pytest.approx(0.5)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1.0))
def test_relative_entropy_scaling_identity(lam):
    omega = diag_state(0.7, 0.3)
    phi = diag_state(0.4, 0.6)
    lhs = relative_entropy(omega.scale(lam), phi)
    rhs = lam * math.log(lam) + lam * relative_entropy(omega, phi)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_relative_entropy_matches_oracle(rng):
    for _ in range(50):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        sig = h @ h.conj().T
        sig /= np.trace(sig).real
        a = StateFunctional.from_density(rho)
        b = StateFunctional.from_density(sig)
        assert relative_entropy(a, b) == pytest.approx(oracle_rel_entropy(rho, sig), abs=1e-10)


@pytest.mark.parametrize("dim", [0, -1])
def test_maximally_mixed_rejects_a_dimension_below_one(dim):
    with pytest.raises(DimensionMismatch):
        StateFunctional.maximally_mixed(dim)
    with pytest.raises(DimensionMismatch, match="nonempty"):
        StateFunctional.from_density(np.zeros((0, 0)))


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        relative_entropy(diag_state(1, 0), StateFunctional.maximally_mixed(3))


def test_lower_semicontinuity_convergence():
    # full-rank limits: S(psi_n, phi_n) -> S(psi, phi)
    psi = diag_state(0.8, 0.2)
    phi = mix(StateFunctional.from_density(PLUS), StateFunctional.maximally_mixed(2), 0.3)
    limit = relative_entropy(psi, phi)
    prev_gap = None
    for eps in (1e-2, 1e-4, 1e-6):
        psi_n = mix(psi, StateFunctional.from_density(PLUS), eps)
        phi_n = mix(phi, StateFunctional.maximally_mixed(2), eps)
        gap = abs(relative_entropy(psi_n, phi_n) - limit)
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap
    assert prev_gap < 1e-3


def test_donald_split_halves():
    phi = diag_state(0.6, 0.4)
    parts = [phi.scale(0.5), phi.scale(0.5)]
    assert donald_residual(parts, phi) <= 1e-12


def test_donald_orthogonal_parts():
    parts = [diag_state(1, 0).scale(0.5), diag_state(0, 1).scale(0.5)]
    assert donald_residual(parts, StateFunctional.maximally_mixed(2)) <= 1e-10


def test_donald_random_decomposition(rng):
    for _ in range(25):
        g = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        phi = StateFunctional.from_density(rho)
        parts = []
        for _ in range(3):
            h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            w = h @ h.conj().T
            parts.append(StateFunctional.from_density(w / np.trace(w).real).scale(rng.random() + 0.1))
        assert donald_residual(parts, phi) <= 1e-8


def test_donald_empty_rejected():
    with pytest.raises(ValidationFailure):
        donald_residual([], StateFunctional.maximally_mixed(2))


def test_donald_infinite_flag():
    phi = diag_state(1, 0)
    parts = [StateFunctional.maximally_mixed(2).scale(0.5)] * 2
    assert donald_residual(parts, phi) == math.inf


def test_decomposition_gap_eigensplit():
    # parts along the eigenbasis: both sides reduce to the Shannon entropy
    for p in (0.2, 0.5, 0.85):
        phi = diag_state(p, 1 - p)
        parts = [diag_state(1, 0).scale(p), diag_state(0, 1).scale(1 - p)]
        assert decomposition_entropy_gap(parts, phi) == pytest.approx(0.0, abs=1e-12)


def test_decomposition_gap_single_part():
    phi = diag_state(0.3, 0.7)
    assert decomposition_entropy_gap([phi], phi) == pytest.approx(von_neumann_entropy(phi))


def test_decomposition_gap_random_nonneg(rng):
    from qde.linalg import power_on_support

    for _ in range(30):
        g = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        phi = StateFunctional.from_density(rho)
        sqrt_rho = power_on_support(rho, 0.5)
        raws = []
        for _ in range(3):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            raws.append(h @ h.conj().T)
        whiten = power_on_support(sum(raws), -0.5)
        parts = [
            StateFunctional._trusted(sqrt_rho @ whiten @ a @ whiten @ sqrt_rho, phi.algebra)
            for a in raws
        ]
        assert decomposition_entropy_gap(parts, phi) >= -1e-8


def test_decomposition_gap_rejects_bad_sum():
    phi = StateFunctional.maximally_mixed(2)
    with pytest.raises(ValidationFailure):
        decomposition_entropy_gap([phi.scale(0.25)], phi)


def test_trace_distance():
    assert trace_distance(diag_state(1, 0), diag_state(0, 1)) == pytest.approx(2.0)


def test_trace_distance_rejects_functionals_of_different_dimension():
    # a 1 x 1 density would broadcast against the 2 x 2 one
    with pytest.raises(DimensionMismatch):
        trace_distance(diag_state(1), diag_state(0.5, 0.5))


def test_decomposition_gap_rejects_a_part_of_another_dimension():
    phi = StateFunctional.maximally_mixed(2)
    with pytest.raises(DimensionMismatch):
        decomposition_entropy_gap([phi.scale(0.5), diag_state(0.5)], phi)


@pytest.mark.parametrize("factor", [-1.0, -1e-300, math.nan, math.inf])
def test_scale_rejects_a_factor_outside_zero_to_infinity(factor):
    with pytest.raises(ValidationFailure):
        StateFunctional.maximally_mixed(2).scale(factor)


@pytest.mark.parametrize("lam", [-0.5, 1.5, 1.0 + 1e-12, math.nan, math.inf])
def test_mix_rejects_a_weight_outside_the_unit_interval(lam):
    with pytest.raises(ValidationFailure):
        mix(diag_state(1, 0), diag_state(0, 1), lam)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_mix_accepts_the_interval_ends(lam):
    mixed = mix(diag_state(1, 0), diag_state(0, 1), lam)
    assert np.array_equal(mixed.density.diagonal().real, [1.0 - lam, lam])


def test_state_validation():
    with pytest.raises(NotPositiveSemidefinite):
        StateFunctional.from_density(np.diag([1.0, -0.1]).astype(complex))
    with pytest.raises(ValidationFailure):
        StateFunctional.from_density(np.array([[0, 1], [0, 0]], dtype=complex))
