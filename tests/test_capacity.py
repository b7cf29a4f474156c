import math

import numpy as np
import pytest

from qde import defaults
from qde.capacity import (
    OptimizerConfig,
    capacity_rate,
    dephasing_channel,
    depolarizing_channel,
    ensemble_channel,
    holevo_quantity,
    information_gain,
    merged_capacity_report,
    optimize_Cn,
    optimize_Dn,
    product_parameters,
    projective_measurement,
    proportional_code_channel,
    unit_input_state,
)
from qde.errors import PropertyViolation, ResourceCapExceeded, ValidationFailure
from qde.linalg import hermitian_basis
from qde.partitions import Partition, partition_power, tensor_partition, vn_partition
from qde.properties import random_invariant_state, random_partition
from qde.states import StateFunctional, product_state

from conftest import LN2, MINUS, P0, P1, PLUS
from oracles import shannon

FAST = OptimizerConfig(restarts=6, max_iterations=300, seed=11)


def orthogonal_ensemble():
    return ensemble_channel([P0, P1], [0.5, 0.5])


def zero_plus_ensemble():
    return ensemble_channel([P0, PLUS], [0.5, 0.5])


def z_measurement():
    return vn_partition([P0, P1])


def x_measurement():
    return vn_partition([PLUS, MINUS])


# --- information gain ----------------------------------------------------------


def test_gain_proportional_code_is_zero(rng):
    channel = proportional_code_channel([0.3, 0.7], 2)
    phi = StateFunctional.from_density(PLUS)
    for _ in range(5):
        eta = projective_measurement(rng.uniform(-2, 2, 3), hermitian_basis(2))
        gain, gain_c = information_gain(phi, channel, eta)
        assert gain == pytest.approx(0.0, abs=1e-10)
        assert gain_c == pytest.approx(0.0, abs=1e-10)


def test_gain_orthogonal_with_matching_measurement():
    gain, gain_c = information_gain(unit_input_state(), orthogonal_ensemble(), z_measurement())
    assert gain == pytest.approx(LN2, abs=1e-10)
    assert gain_c == pytest.approx(LN2, abs=1e-10)


def test_gain_orthogonal_with_mismatched_measurement():
    # the classical gain vanishes (outcome weights independent of the letter);
    # the divergence-based gain stays at its flat maximum H = ln 2
    gain, gain_c = information_gain(unit_input_state(), orthogonal_ensemble(), x_measurement())
    assert gain_c == pytest.approx(0.0, abs=1e-12)
    assert gain == pytest.approx(LN2, abs=1e-10)


def test_gain_bounded_by_information(rng):
    from qde.dynamics import information

    channel = zero_plus_ensemble()
    phi = unit_input_state()
    bound = information(phi, channel).total_H
    for _ in range(10):
        eta = projective_measurement(rng.uniform(-3, 3, 3), hermitian_basis(2))
        gain, gain_c = information_gain(phi, channel, eta)
        assert -1e-10 <= gain_c <= gain + 1e-10
        assert gain <= bound + 1e-10


# --- grid-search oracle ----------------------------------------------------------


def grid_search_gains(densities, probs, resolution=1e-4):
    """Exhaustive 1-parameter search over real rotated bases, from scalars up."""
    alphas = np.arange(0.0, math.pi / 2, resolution)
    best_i, best_ic = -1.0, -1.0
    rho_bar = sum(p * rho for p, rho in zip(probs, densities))
    h_code = shannon(probs)  # letters are pure here
    chi = -sum(
        lam * math.log(lam) for lam in np.linalg.eigvalsh(rho_bar) if lam > 1e-14
    )
    for a in alphas:
        basis = (
            np.array([math.cos(a), math.sin(a)]),
            np.array([-math.sin(a), math.cos(a)]),
        )
        q = np.array(
            [
                [p * float(np.real(v @ rho @ v)) for v in basis]
                for p, rho in zip(probs, densities)
            ]
        )
        r = q.sum(axis=0)
        ic = h_code + shannon(r) - shannon(q.reshape(-1))
        # joint outputs are the pure basis states: the two divergence terms
        # H_after(eta) and H(joint) coincide at -sum r ln r, so I = chi
        best_ic = max(best_ic, ic)
        best_i = max(best_i, chi)
    return best_i, best_ic


def test_optimizer_matches_grid_oracle_zero_plus():
    channel = zero_plus_ensemble()
    phi = unit_input_state()
    oracle_i, oracle_ic = grid_search_gains([P0, PLUS], [0.5, 0.5])
    rep_c = optimize_Cn(phi, channel, 1, FAST)
    rep_d = optimize_Dn(phi, channel, 1, FAST)
    assert rep_c.C_n_lower == pytest.approx(oracle_i, abs=1e-4)
    assert rep_d.D_n_lower == pytest.approx(oracle_ic, abs=1e-4)


def test_optimizer_reaches_ln2_on_orthogonal():
    phi = unit_input_state()
    rep_c = optimize_Cn(phi, orthogonal_ensemble(), 1, FAST)
    rep_d = optimize_Dn(phi, orthogonal_ensemble(), 1, FAST)
    assert rep_c.C_n_lower >= LN2 - 1e-4
    assert rep_c.C_n_lower <= rep_c.H_upper + 1e-8
    assert rep_d.D_n_lower == pytest.approx(LN2, abs=1e-4)


def test_proportional_capacity_zero():
    phi = StateFunctional.maximally_mixed(2)
    rep = merged_capacity_report(phi, proportional_code_channel([0.5, 0.5], 2), 1, FAST)
    assert rep.C_n_lower == pytest.approx(0.0, abs=1e-9)
    assert rep.D_n_lower == pytest.approx(0.0, abs=1e-9)


def test_capacity_chain_on_reports():
    phi = unit_input_state()
    for channel in (orthogonal_ensemble(), zero_plus_ensemble()):
        rep = merged_capacity_report(phi, channel, 1, FAST)
        assert -1e-8 <= rep.D_n_lower <= rep.C_n_lower + 1e-8
        assert rep.C_n_lower <= rep.H_upper + 1e-8


def test_optimizer_deterministic():
    phi = unit_input_state()
    a = optimize_Dn(phi, zero_plus_ensemble(), 1, FAST)
    b = optimize_Dn(phi, zero_plus_ensemble(), 1, FAST)
    assert a.D_n_lower == b.D_n_lower
    assert a.best_measurement_parameters == b.best_measurement_parameters


# --- Holevo quantity -------------------------------------------------------------


def test_holevo_orthogonal():
    assert holevo_quantity(unit_input_state(), orthogonal_ensemble()) == pytest.approx(LN2)


def test_holevo_zero_plus():
    # scalar eigenvalue arithmetic: mean output (|0><0| + |+><+|)/2 has
    # eigenvalues (1 +- 1/sqrt(2))/2
    lams = ((1 + 1 / math.sqrt(2)) / 2, (1 - 1 / math.sqrt(2)) / 2)
    expected = -sum(l * math.log(l) for l in lams)
    chi = holevo_quantity(unit_input_state(), zero_plus_ensemble())
    assert chi == pytest.approx(expected, abs=1e-12)
    assert chi == pytest.approx(0.4165, abs=1e-4)


def test_holevo_single_outcome():
    chi = holevo_quantity(StateFunctional.from_density(PLUS), Partition.trivial(2))
    assert chi == pytest.approx(0.0, abs=1e-12)


# --- block length 2 ---------------------------------------------------------------


def test_capacity_rate_orthogonal_two_blocks():
    phi = unit_input_state()
    cfg = OptimizerConfig(restarts=4, max_iterations=250, seed=3)
    rate = capacity_rate(phi, orthogonal_ensemble(), n_max=2, config=cfg)
    assert rate.superadditivity_residual <= 2e-4
    rates = {n: rep.C_n_lower / n for n, rep in rate.reports.items()}
    assert rates[2] == pytest.approx(rates[1], abs=2e-4)
    assert rates[1] == pytest.approx(LN2, abs=1e-4)


def test_gain_additive_under_product_measurements(rng):
    channel = zero_plus_ensemble()
    phi = unit_input_state()
    basis = hermitian_basis(2)
    for _ in range(3):
        pa, pb = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        eta_a, eta_b = projective_measurement(pa, basis), projective_measurement(pb, basis)
        i_a, ic_a = information_gain(phi, channel, eta_a)
        i_b, ic_b = information_gain(phi, channel, eta_b)
        big = partition_power(channel, 2)
        phi2 = product_state(phi, phi)
        i_ab, ic_ab = information_gain(phi2, big, tensor_partition(eta_a, eta_b))
        assert i_ab == pytest.approx(i_a + i_b, abs=1e-8)
        assert ic_ab == pytest.approx(ic_a + ic_b, abs=1e-8)


def test_product_parameters_reproduce_tensor(rng):
    import scipy.linalg

    pa, pb = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    basis = hermitian_basis(2)
    ua = scipy.linalg.expm(1j * sum(c * f for c, f in zip(pa, basis)))
    ub = scipy.linalg.expm(1j * sum(c * f for c, f in zip(pb, basis)))
    big_params = product_parameters(pa, pb, 2)
    big_basis = hermitian_basis(4)
    u_big = scipy.linalg.expm(1j * sum(c * f for c, f in zip(big_params, big_basis)))
    assert np.linalg.norm(u_big - np.kron(ua, ub)) < 1e-10


# --- zoo construction and guards ----------------------------------------------------


def test_depolarizing_and_dephasing_are_channels(rng):
    for code in (
        depolarizing_channel(0.3),
        depolarizing_channel(0.7, dim=3),
        dephasing_channel(0.25),
    ):
        assert code.dim_in == code.dim_out
        assert code.unit_sum_residual <= defaults.UNIT_SUM_TOL
        phi = random_invariant_state(rng, np.eye(code.dim_in))
        out = code.total_predual(phi)
        assert out.weight == pytest.approx(1.0, abs=1e-10)


def test_capacity_rate_rejects_block_length_below_one():
    for n_max in (0, -1):
        with pytest.raises(ValidationFailure):
            capacity_rate(unit_input_state(), orthogonal_ensemble(), n_max=n_max, config=FAST)


def test_report_flags_a_search_stopped_at_its_iteration_limit():
    phi = unit_input_state()
    short = OptimizerConfig(restarts=1, max_iterations=5, seed=0)
    generous = OptimizerConfig(restarts=1, max_iterations=2000, seed=0)
    assert not merged_capacity_report(phi, zero_plus_ensemble(), 1, short).converged
    assert merged_capacity_report(phi, zero_plus_ensemble(), 1, generous).converged


def test_block_cap_guard():
    with pytest.raises(ResourceCapExceeded):
        optimize_Cn(unit_input_state(), orthogonal_ensemble(), 3, FAST)


def test_fixed_list_family():
    # a given list of measurements is evaluated, not searched
    phi = unit_input_state()
    gains = [
        information_gain(phi, orthogonal_ensemble(), eta)[1]
        for eta in (z_measurement(), x_measurement())
    ]
    assert max(gains) == pytest.approx(LN2, abs=1e-12)


def test_realized_measurements_validate(rng):
    from qde.partitions import validate_partition

    basis = hermitian_basis(3)
    for _ in range(3):
        eta = projective_measurement(rng.uniform(-2, 2, len(basis)), basis)
        assert validate_partition(eta, samples=10).passed


def test_search_builds_the_parameter_basis_once(monkeypatch):
    import qde.capacity

    calls = []

    def counting_basis(dim, *args, **kwargs):
        calls.append(dim)
        return hermitian_basis(dim, *args, **kwargs)

    monkeypatch.setattr(qde.capacity, "hermitian_basis", counting_basis)
    cfg = OptimizerConfig(restarts=2, max_iterations=20, seed=0)
    optimize_Dn(unit_input_state(), zero_plus_ensemble(), 1, cfg)
    assert calls == [2]


def test_capacity_sweep_lower_bounds():
    from qde.capacity import capacity_sweep

    phi = unit_input_state()
    cfg = OptimizerConfig(restarts=3, max_iterations=150, seed=2)
    sweep = capacity_sweep(
        [
            (phi, orthogonal_ensemble()),
            (phi, ensemble_channel([P0, P1], [0.25, 0.75])),
        ],
        config=cfg,
    )
    assert sweep.best_C_lower >= LN2 - 1e-6
    assert sweep.best_D_lower >= LN2 - 1e-6
    assert len(sweep.reports) == 2


def test_merged_report_computes_the_n1_code_information_once_per_search(monkeypatch):
    import qde.capacity

    information, gain_from_parts = qde.capacity.information, qde.capacity._gain_from_parts
    inside_gain = []
    outside_calls = []

    def counting_information(*args, **kwargs):
        if not inside_gain:
            outside_calls.append(args)
        return information(*args, **kwargs)

    def marked_gain(*args, **kwargs):
        inside_gain.append(True)
        try:
            return gain_from_parts(*args, **kwargs)
        finally:
            inside_gain.pop()

    monkeypatch.setattr(qde.capacity, "information", counting_information)
    monkeypatch.setattr(qde.capacity, "_gain_from_parts", marked_gain)
    cfg = OptimizerConfig(restarts=1, max_iterations=5, seed=0)
    report = merged_capacity_report(unit_input_state(), zero_plus_ensemble(), 1, cfg)
    # one base evaluation per search; H_upper reuses it
    assert len(outside_calls) == 2
    assert report.H_upper == information(unit_input_state(), zero_plus_ensemble()).total_H


# --- the weight-form objective and its certificate -----------------------------------


def _trine():
    kets = [np.array([math.cos(t), math.sin(t)]) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return ensemble_channel([np.outer(k, k) for k in kets], [1 / 3, 1 / 3, 1 / 3])


def _weight_gains(phi, code, params):
    """(I, Ic) of the search objective: the weight form."""
    import qde.capacity as cap
    from qde.dynamics import information

    branches = np.stack([m.predual(phi.density) for m in code.maps])
    u = cap._rotation(params, hermitian_basis(code.dim_out))
    return cap._gain_from_weights(information(phi, code), branches, u)


def _library_gains(phi, code, params):
    """(I, Ic) of the certificate: the full `information_gain` path."""
    return information_gain(phi, code, projective_measurement(params, hermitian_basis(code.dim_out)))


@pytest.mark.parametrize("n", [1, 2])
def test_weight_form_matches_the_library_gain(rng, n):
    from qde.capacity import state_power

    mixed = StateFunctional.from_density(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
    zoo = [
        (unit_input_state(), _trine()),
        (unit_input_state(), zero_plus_ensemble()),
        (mixed, depolarizing_channel(0.3)),
        (mixed, dephasing_channel(0.25)),
        (mixed, proportional_code_channel([0.3, 0.7], 2)),
    ]
    for phi, code in zoo:
        phi_n, code_n = state_power(phi, n), partition_power(code, n)
        for _ in range(20):
            params = rng.uniform(-np.pi, np.pi, code_n.dim_out**2 - 1)
            library = _library_gains(phi_n, code_n, params)
            assert _weight_gains(phi_n, code_n, params) == pytest.approx(library, abs=1e-12)


def test_both_gain_paths_reject_an_outcome_on_the_support_edge():
    # outcome 1 carries weight 1e-13: live, yet within SUPPORT_CUTOFF of the mean's top
    code = ensemble_channel([np.diag([1 - 1e-13, 1e-13])], [1.0])
    for gains in (_weight_gains, _library_gains):
        with pytest.raises(ValidationFailure, match="infinite divergence"):
            gains(unit_input_state(), code, np.zeros(3))


def test_a_search_value_its_certificate_disputes_raises(monkeypatch):
    import qde.capacity as cap

    exact = cap._gain_from_weights

    def off_by_a_micro_nat(*args):
        gain, gain_c = exact(*args)
        return gain + 1e-6, gain_c + 1e-6

    monkeypatch.setattr(cap, "_gain_from_weights", off_by_a_micro_nat)
    cfg = OptimizerConfig(restarts=1, max_iterations=20, seed=0)
    with pytest.raises(PropertyViolation, match="certified"):
        merged_capacity_report(unit_input_state(), zero_plus_ensemble(), 1, cfg)
