import dataclasses
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
from qde.errors import (
    NotPositiveSemidefinite,
    PropertyViolation,
    ResourceCapExceeded,
    ValidationFailure,
)
from qde.linalg import hermitian_basis
from qde.partitions import (
    KrausMap,
    Partition,
    compose,
    partition_power,
    tensor_partition,
    vn_partition,
)
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


@pytest.mark.parametrize("search", [optimize_Cn, optimize_Dn, merged_capacity_report])
def test_a_huge_block_length_in_a_direct_search_call_hits_the_resource_cap(monkeypatch, search):
    import qde.capacity as cap

    def no_search(*args):
        raise AssertionError("a search ran before the block length was refused")

    monkeypatch.setattr(cap, "_search", no_search)
    # the message names the rule, not dim_out**n: 2**(10**6) has more digits
    # than Python converts to a string
    with pytest.raises(ResourceCapExceeded, match=r"^block length 1000000 rejected \(at most 2\)$"):
        search(unit_input_state(), orthogonal_ensemble(), 10**6, FAST)


@pytest.mark.parametrize("n_max", [3, 10**9])
def test_a_block_length_past_2_is_refused_before_any_search(monkeypatch, n_max):
    import qde.capacity as cap

    def no_search(*args):
        raise AssertionError("a search ran before the block length was refused")

    monkeypatch.setattr(cap, "_search", no_search)
    # the message names the first refused level, so 10**9 builds no 2**(10**9)
    first_refused = r"^block length 3 rejected \(output dimension 8\)$"
    with pytest.raises(ResourceCapExceeded, match=first_refused):
        capacity_rate(unit_input_state(), zero_plus_ensemble(), n_max=n_max, config=FAST)


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
    from qde.dynamics import information

    branch_preduals, gain_from_parts = Partition.branch_preduals, qde.capacity._gain_from_parts
    inside_gain = []
    outside_calls = []

    def counting_branch_preduals(*args, **kwargs):
        if not inside_gain:
            outside_calls.append(args)
        return branch_preduals(*args, **kwargs)

    def marked_gain(*args, **kwargs):
        inside_gain.append(True)
        try:
            return gain_from_parts(*args, **kwargs)
        finally:
            inside_gain.pop()

    monkeypatch.setattr(Partition, "branch_preduals", counting_branch_preduals)
    monkeypatch.setattr(qde.capacity, "_gain_from_parts", marked_gain)
    cfg = OptimizerConfig(restarts=1, max_iterations=5, seed=0)
    report = merged_capacity_report(unit_input_state(), zero_plus_ensemble(), 1, cfg)
    # one build per search feeds both the code information and the search's
    # weights; H_upper reuses that information
    assert len(outside_calls) == 2
    assert report.H_upper == information(unit_input_state(), zero_plus_ensemble()).total_H


# --- the weight-form objective and its certificate -----------------------------------


def _trine():
    kets = [np.array([math.cos(t), math.sin(t)]) for t in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return ensemble_channel([np.outer(k, k) for k in kets], [1 / 3, 1 / 3, 1 / 3])


def _base_and_branches(phi, code):
    from qde.dynamics import information

    return information(phi, code), np.stack([m.predual(phi.density) for m in code.maps])


def _eigh_weight_gains(phi, code, params):
    """(I, Ic) of the weight form with the weights from `_rotation`'s eigh."""
    import qde.capacity as cap

    base, branches = _base_and_branches(phi, code)
    u = cap._rotation(params, np.array(hermitian_basis(code.dim_out)))
    return cap._gain_from_weights(base, cap._rotated_weights(branches, u))


def _objective_gains(phi, code, params):
    """(I, Ic) of the weights `_optimize` searches, at the measurement of the orbit
    parameters `params`: on a qubit output the closed form at `_in_plane(params)`,
    as a three-parameter seed enters the search; on a larger one the eigh form."""
    import qde.capacity as cap

    if code.dim_out != 2:
        return _eigh_weight_gains(phi, code, params)
    base, branches = _base_and_branches(phi, code)
    return cap._gain_from_weights(base, cap._bloch_weights(branches)(cap._in_plane(params)))


def _xyz_bloch_weights(branches, params):
    """The rows q_i of the retired three-parameter closed form, the reference
    for the (x, y) form: n = (2(kx kz - c ky), 2(c kx + ky kz), 1 - 2r) with
    k = sin(|params|/sqrt(2)) params/|params| and c = cos(|params|/sqrt(2))."""
    x, y, z = params.tolist()
    norm = math.sqrt(x * x + y * y + z * z)
    half = norm / math.sqrt(2.0)
    scale = math.sin(half) / norm if norm else 0.0
    c, kx, ky, kz = math.cos(half), scale * x, scale * y, scale * z
    r = kx * kx + ky * ky
    nx, ny = 2.0 * (kx * kz - c * ky), 2.0 * (c * kx + ky * kz)
    rows = []
    for b00, b01, b11 in branches[:, [0, 0, 1], [0, 1, 1]].tolist():
        b00, b11, e = b00.real, b11.real, nx * b01.real - ny * b01.imag
        rows.append([(1.0 - r) * b00 + r * b11 + e, r * b00 + (1.0 - r) * b11 - e])
    return rows


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
            assert _objective_gains(phi_n, code_n, params) == pytest.approx(library, abs=1e-12)


def test_both_gain_paths_reject_an_outcome_on_the_support_edge():
    # outcome 1 carries weight 1e-13: live, yet within SUPPORT_CUTOFF of the mean's top
    code = ensemble_channel([np.diag([1 - 1e-13, 1e-13])], [1.0])
    for gains in (_eigh_weight_gains, _objective_gains, _library_gains):
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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotation_is_the_matrix_exponential_of_its_generator(rng, d):
    import scipy.linalg

    import qde.capacity as cap

    basis = np.array(hermitian_basis(d))
    degenerate = np.zeros(len(basis))
    degenerate[-1] = 1.7  # diag(1, .., 1, 1 - d) up to scale: d - 1 equal eigenvalues
    cases = [rng.uniform(-np.pi, np.pi, len(basis)) for _ in range(5)]
    for params in cases + [np.zeros(len(basis)), degenerate]:
        u = cap._rotation(params, basis)
        generator = sum(c * f for c, f in zip(params, basis))
        assert np.abs(u - scipy.linalg.expm(1j * generator)).max() < 1e-13
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-13
    assert np.array_equal(cap._rotation(np.zeros(len(basis)), basis), np.eye(d))


def _floor_code(w):
    """A code on a qubit in the state diag(1 - w, w) whose measurement in the
    standard basis has exactly one joint weight, q_00 = w, at most 2 WEIGHT_FLOOR.

    Letter 0 is {|0><1|, |1><0|/2}, letter 1 is {|0><0|/2, |1><0|/2, |1><0|/2};
    every other joint weight, letter weight and outcome weight is near 1/4 or
    more, so only q_00 meets the floor, and every product is exact in binary.
    """
    def unit(row, col, c=1.0):
        m = np.zeros((2, 2), dtype=complex)
        m[row, col] = c
        return m

    code = Partition(
        (
            KrausMap((unit(0, 1), unit(1, 0, 0.5)), label=0),
            KrausMap((unit(0, 0, 0.5), unit(1, 0, 0.5), unit(1, 0, 0.5)), label=1),
        )
    )
    phi = StateFunctional.from_density(np.diag([1.0 - w, w]).astype(complex))
    q = [[w, (1.0 - w) / 4], [(1.0 - w) / 4, (1.0 - w) / 2]]
    return phi, code, q


@pytest.mark.parametrize("multiple", [1, 2])
def test_a_joint_weight_at_the_floor_contributes_nothing_on_both_gain_paths(multiple):
    import qde.capacity as cap
    from qde.dynamics import information

    w = multiple * defaults.WEIGHT_FLOOR
    phi, code, q = _floor_code(w)
    eta = z_measurement()
    assert information(phi, compose(code, eta)).weights[(0, 0)] == w
    # the qubit objective's weights at params = 0 are the diagonals, bit for bit
    assert cap._bloch_weights(_base_and_branches(phi, code)[1])(np.zeros(2)) == q
    a = [q[0][j] + q[1][j] for j in range(2)]
    kept = [x for row in q for x in row if x > defaults.WEIGHT_FLOOR]
    assert len(kept) == 4 - (w == defaults.WEIGHT_FLOOR)
    expected_c = information(phi, code).classical_Hc + shannon(a) - shannon(kept)
    # the entry at the floor shifts Ic by w ln(1/w), 3e-13 or more: far above the tolerance
    assert w * -math.log(w) > 3e-13
    for gains in (_eigh_weight_gains, _objective_gains, _library_gains):
        _, gain_c = gains(phi, code, np.zeros(3))
        assert gain_c == pytest.approx(expected_c, abs=2e-15)


@pytest.mark.parametrize("norm", [0.0, 1e-12, 1e-8, 1e-4, 0.1, 1.0, 3.0, 7.5, 20.0])
def test_the_qubit_objective_matches_the_eigh_weight_form(rng, norm):
    import qde.capacity as cap

    basis = np.array(hermitian_basis(2))
    mixed = StateFunctional.from_density(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
    zoo = [
        (unit_input_state(), _trine()),
        (unit_input_state(), zero_plus_ensemble()),
        (mixed, depolarizing_channel(0.3)),
        (mixed, dephasing_channel(0.25)),
    ]
    for phi, code in zoo:
        base, branches = _base_and_branches(phi, code)
        bloch = cap._bloch_weights(branches)
        for _ in range(10):
            direction = rng.normal(size=3)
            params = norm * direction / np.linalg.norm(direction)
            eigh_form = cap._rotated_weights(branches, cap._rotation(params, basis))
            xyz_form = _xyz_bloch_weights(branches, params)
            assert np.abs(np.subtract(xyz_form, eigh_form)).max() <= 1e-13
            # in the plane the (x, y) form is the three-parameter one, bit for bit
            xy = norm * direction[:2] / np.linalg.norm(direction[:2])
            in_plane = np.append(xy, 0.0)
            assert bloch(xy) == _xyz_bloch_weights(branches, in_plane)
            gains = cap._gain_from_weights(base, bloch(xy))
            assert gains == pytest.approx(_eigh_weight_gains(phi, code, in_plane), abs=1e-13)


def test_a_qubit_search_objective_runs_no_eigensolve(monkeypatch):
    import qde.capacity as cap

    eigh, search = np.linalg.eigh, cap._search
    evaluating, solves, evaluations = [], [], []

    def counting_eigh(*args, **kwargs):
        if evaluating:
            solves.append(args)
        return eigh(*args, **kwargs)

    def watched_search(objective, nparams, config):
        def watched(params):
            evaluating.append(True)
            try:
                return objective(params)
            finally:
                evaluating.pop()
                evaluations.append(params)

        return search(watched, nparams, config)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(cap, "_search", watched_search)
    mixed = StateFunctional.from_density(np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]]))
    cfg = OptimizerConfig(restarts=2, max_iterations=20, seed=0)
    merged_capacity_report(unit_input_state(), _trine(), 1, cfg)
    merged_capacity_report(mixed, depolarizing_channel(0.3), 1, cfg)
    assert evaluations and not solves


def _binary_entropy(p):
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0)


def test_qubit_search_meets_levitins_closed_form_for_two_pure_states(rng):
    # two equiprobable pure states at overlap c = |<a|b>| have the accessible
    # information D_1 = ln 2 - h((1 + sqrt(1 - c^2)) / 2) (Levitin 1995)
    kets = [(np.array([1.0, 0.0]), np.array([1.0, 1.0]))]
    kets += [tuple(rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)) for _ in range(4)]
    cfg = OptimizerConfig(restarts=4, max_iterations=200, seed=0)
    for a, b in kets:
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        overlap = abs(np.vdot(a, b))
        levitin = LN2 - _binary_entropy((1 + math.sqrt(1 - overlap**2)) / 2)
        code = ensemble_channel([np.outer(a, a.conj()), np.outer(b, b.conj())], [0.5, 0.5])
        report = optimize_Dn(unit_input_state(), code, 1, cfg)
        assert report.D_n_lower == pytest.approx(levitin, abs=1e-9)


def test_a_one_dimensional_output_fails_the_search_closed():
    one = np.ones((1, 1), dtype=complex)
    for code in (
        ensemble_channel([one], [1.0]),
        proportional_code_channel([0.5, 0.5], 1),
        depolarizing_channel(0.5, dim=1),
    ):
        phi = StateFunctional.from_density(one)
        with pytest.raises(ValidationFailure, match="output dimension of at least 2"):
            optimize_Cn(phi, code, 1, FAST)


def test_constructors_reject_a_nan_probability_with_their_own_message():
    with pytest.raises(ValidationFailure, match="ensemble probabilities"):
        ensemble_channel([P0, P1], [math.nan, 0.5])
    with pytest.raises(ValidationFailure, match="proportional weights"):
        proportional_code_channel([math.nan, 0.5], 2)


# --- ensemble PSD rule and the product-seeding gate --------------------------------


def test_ensemble_member_spectra_follow_the_library_psd_rule():
    # an eigenvalue in [-1e-10, 0) clamps to zero; one below it names its member
    clamped = ensemble_channel([np.diag([1 + 5e-11, -5e-11]), P0], [0.5, 0.5])
    assert [len(m.kraus) for m in clamped.maps] == [1, 1]
    for negative in (-5e-10, -0.5):
        rho = np.diag([1 - negative, negative])
        with pytest.raises(NotPositiveSemidefinite, match="^ensemble member 1: eigenvalue"):
            ensemble_channel([P0, rho], [0.5, 0.5])


def _lowered(monkeypatch, field):
    """Make capacity_rate's n = 2 report read 1e-3 below twice its n = 1 value in `field`."""
    import qde.capacity

    merged = qde.capacity.merged_capacity_report
    seen = {}

    def lowered(phi, code, n, config):
        report = merged(phi, code, n, config)
        seen[n] = report
        if n == 2:
            report = dataclasses.replace(report, **{field: 2 * getattr(seen[1], field) - 1e-3})
        return report

    monkeypatch.setattr(qde.capacity, "merged_capacity_report", lowered)


def test_capacity_rate_gates_product_seeding_on_D(monkeypatch):
    # every rank-1 projective measurement reads C_n = H(code^n), so only D_2
    # can show a seeding failure
    cfg = OptimizerConfig(restarts=1, max_iterations=40, seed=1)
    _lowered(monkeypatch, "D_n_lower")
    with pytest.raises(PropertyViolation, match="D_2 fell below twice D_1 by 1.000e-03"):
        capacity_rate(unit_input_state(), zero_plus_ensemble(), n_max=2, config=cfg)


def test_capacity_rate_reads_H_upper_from_each_level(monkeypatch):
    cfg = OptimizerConfig(restarts=1, max_iterations=40, seed=1)
    _lowered(monkeypatch, "C_n_lower")  # no longer the gated bound
    rate = capacity_rate(unit_input_state(), zero_plus_ensemble(), n_max=2, config=cfg)
    chi = holevo_quantity(unit_input_state(), zero_plus_ensemble())
    assert rate.reports[2].H_upper == pytest.approx(2 * chi, abs=1e-12)
    assert rate.superadditivity_residual <= 2e-4



def test_a_qubit_search_steps_on_x_and_y_and_reports_z_zero(monkeypatch):
    import qde.capacity as cap

    search, widths = cap._search, []

    def watched_search(objective, nparams, config):
        widths.append(nparams)
        return search(objective, nparams, config)

    monkeypatch.setattr(cap, "_search", watched_search)
    cfg = OptimizerConfig(restarts=3, max_iterations=60, seed=2)
    report = merged_capacity_report(unit_input_state(), zero_plus_ensemble(), 1, cfg)
    assert widths == [2, 2]
    for params in report.best_measurement_parameters.values():
        assert len(params) == 3 and params[2] == 0.0
    # the padded winner is the measurement the report certified
    winner = np.array(report.best_measurement_parameters["classical"])
    eta = projective_measurement(winner, hermitian_basis(2))
    gains = information_gain(unit_input_state(), zero_plus_ensemble(), eta)
    assert gains[1] == pytest.approx(report.D_n_lower, abs=1e-12)
    # a larger output searches every generator component
    widths.clear()
    phi = StateFunctional.from_density(PLUS)
    code = partition_power(dephasing_channel(0.2), 2)
    optimize_Dn(product_state(phi, phi), code, 1, OptimizerConfig(restarts=1, max_iterations=5))
    assert widths == [15]


def _outcome_bloch_vector(params):
    """Bloch vector of outcome 0 of `projective_measurement(params, hermitian_basis(2))`."""
    eta = projective_measurement(np.asarray(params, dtype=float), hermitian_basis(2))
    p0 = eta.maps[0].kraus[0]
    return np.array([2 * p0[0, 1].real, -2 * p0[0, 1].imag, (p0[0, 0] - p0[1, 1]).real])


def test_every_bloch_direction_is_reached_by_an_in_plane_generator(rng):
    # an in-plane generator of norm t rotates z by sqrt(2) t about (x, y) / t, so
    # n = (-sin(sqrt(2) t) y / t, sin(sqrt(2) t) x / t, cos(sqrt(2) t))
    for n in rng.normal(size=(50, 3)):
        n /= np.linalg.norm(n)
        t = math.atan2(math.hypot(n[0], n[1]), n[2]) / math.sqrt(2)
        x, y = t * np.array([n[1], -n[0]]) / math.hypot(n[0], n[1])
        assert np.abs(_outcome_bloch_vector([x, y, 0.0]) - n).max() <= 1e-12


def test_a_three_parameter_seed_enters_the_qubit_search_as_its_own_measurement(rng):
    from qde.capacity import _in_plane

    poles = [np.zeros(3), np.array([0.0, 0.0, 2.0]), np.array([math.pi / math.sqrt(2), 0, 0])]
    for params in poles + list(rng.uniform(-np.pi, np.pi, size=(50, 3))):
        moved = np.append(_in_plane(params), 0.0)
        assert np.abs(_outcome_bloch_vector(moved) - _outcome_bloch_vector(params)).max() <= 1e-12
    # the search starts from the seed's own measurement, so it never ends below it
    seed = rng.uniform(-np.pi, np.pi, size=3)
    code = zero_plus_ensemble()
    cfg = OptimizerConfig(restarts=1, max_iterations=1, extra_initial_points=(seed,))
    seeded = optimize_Dn(unit_input_state(), code, 1, cfg)
    eta = projective_measurement(seed, hermitian_basis(2))
    assert seeded.D_n_lower >= information_gain(unit_input_state(), code, eta)[1] - 1e-12


@pytest.mark.parametrize(
    "field,value",
    [("restarts", 0), ("restarts", -3), ("max_iterations", 0), ("seed", -1), ("restarts", 2.0)],
)
def test_optimizer_config_rejects_counts_and_seeds_below_their_minimum(field, value):
    # not one silent restart, and not numpy's error from default_rng
    with pytest.raises(ValidationFailure, match=f"^{field} must be an integer of at least"):
        OptimizerConfig(**{field: value})
