"""The all-1-block (commutative) path against the dense path on the same densities.

A functional on a commutative algebra takes its spectrum from its diagonal,
and exactly diagonal maps keep it there.  Every quantity here is computed
twice: on the commutative algebra, and on the full algebra from the same
density, which runs the dense eigensolves.  Both must agree to 1e-12 with
the same +inf/finite decisions.
"""

import math

import numpy as np
import pytest

from qde.classical import (
    FiniteSpace,
    FunctionPartition,
    SymbolicShift,
    embed_diagonal,
    markov_entropy_sequence,
)
from qde.dynamics import conditional_information, information, information_via_direct_sum
from qde.errors import NotPositiveSemidefinite, ValidationFailure
from qde.linalg import BlockAlgebra
from qde.partitions import (
    KrausMap,
    Partition,
    _dense as _dense_stack,
    _product_diagonals,
    compose,
    predual_apply,
)
from qde.properties import random_function_partition, random_partition
from qde.states import StateFunctional, mix, relative_entropy_report, total_functional

from conftest import PLUS

TOL = 1e-12


def _close(a: float, b: float) -> bool:
    """Equal to TOL, or the same infinity."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL


def _dense(phi: StateFunctional) -> StateFunctional:
    """The same density on the full algebra."""
    return StateFunctional.from_density(phi.density)


def _diagonal(values) -> StateFunctional:
    values = np.asarray(values, dtype=float)
    return StateFunctional.from_density(
        np.diag(values.astype(complex)), BlockAlgebra.commutative(values.size)
    )


def _instance(rng, d):
    """A space with dead points and a 3-outcome partition whose first outcome
    lives on the dead points only, so that it has weight 0."""
    mu = rng.random(d) + 0.05
    dead = rng.choice(d, size=int(rng.integers(1, d // 2 + 1)), replace=False)
    mu[dead] = 0.0
    g = np.abs(rng.normal(size=(3, d))) + 1e-3
    g[0] = 0.0
    g[:, dead] = 0.0
    g[0, dead] = 1.0
    return FiniteSpace(mu / mu.sum()), FunctionPartition(g / np.sqrt((g**2).sum(axis=0)))


def _assert_reports_agree(fast, dense):
    assert fast.infinite_flag == dense.infinite_flag
    for name in ("total_H", "classical_Hc", "quantum_Hq"):
        assert _close(getattr(fast, name), getattr(dense, name)), name
    assert fast.weights.keys() == dense.weights.keys()
    for label, weight in fast.weights.items():
        assert abs(weight - dense.weights[label]) <= TOL


def test_information_agrees_with_the_dense_path(rng):
    zero_weight_outcomes = 0
    for t in range(30):
        d = 3 + t % 6
        space, zeta = _instance(rng, d)
        state, q_zeta = embed_diagonal(space, zeta)
        _, q_eta = embed_diagonal(space, random_function_partition(rng, d, cells=2))
        assert state.algebra.is_commutative
        dense = _dense(state)

        fast = information(state, q_zeta)
        _assert_reports_agree(fast, information(dense, q_zeta))
        zero_weight_outcomes += fast.weights[0] == 0.0
        assert _close(
            information_via_direct_sum(state, q_zeta), information_via_direct_sum(dense, q_zeta)
        )
        assert _close(
            conditional_information(state, q_zeta, q_eta),
            conditional_information(dense, q_zeta, q_eta),
        )
        assert _close(
            conditional_information(state, q_eta, q_zeta),
            conditional_information(dense, q_eta, q_zeta),
        )
    assert zero_weight_outcomes == 30


def _assert_divergences_agree(fast, dense):
    assert fast.finite == dense.finite
    assert _close(fast.value, dense.value)
    assert abs(fast.off_support_mass - dense.off_support_mass) <= TOL
    assert abs(fast.smallest_retained_reference - dense.smallest_retained_reference) <= TOL
    assert abs(fast.smallest_retained_argument - dense.smallest_retained_argument) <= TOL


def _with_zeros(rng, d):
    v = rng.random(d) * rng.uniform(0.2, 1.0)  # sub-normalized
    v[rng.random(d) < 0.3] = 0.0
    v[rng.integers(d)] = rng.uniform(0.1, 1.0)
    return v


def _random_density_on(rng, support, d):
    """A random positive matrix whose range is spanned by the given coordinates."""
    g = np.zeros((d, d), dtype=complex)
    g[support] = rng.normal(size=(len(support), d)) + 1j * rng.normal(size=(len(support), d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_relative_entropy_agrees_with_the_dense_path_on_the_support_edge(rng):
    decisions = set()
    for t in range(200):
        d = 2 + t % 7
        omega, phi = _with_zeros(rng, d), _with_zeros(rng, d)
        if t % 4 == 0:
            # argument mass just beyond the reference support, inside the leak tolerance
            edge = int(np.flatnonzero(phi == 0.0)[0]) if (phi == 0.0).any() else 0
            phi[edge] = 0.0
            omega[edge] = 1e-13
        fast = relative_entropy_report(_diagonal(omega), _diagonal(phi))
        _assert_divergences_agree(
            fast, relative_entropy_report(_dense(_diagonal(omega)), _dense(_diagonal(phi)))
        )
        decisions.add(fast.finite)
    assert decisions == {True, False}


def test_mixed_algebras_agree_with_the_dense_path(rng):
    decisions = set()
    for t in range(100):
        d = 2 + t % 6
        diagonal = _diagonal(_with_zeros(rng, d))
        live = np.flatnonzero(diagonal.density.diagonal().real > 0)
        support = live if t % 2 else np.arange(d)
        full = StateFunctional.from_density(_random_density_on(rng, support, d))
        # commutative reference, full argument
        fast = relative_entropy_report(full, diagonal)
        _assert_divergences_agree(fast, relative_entropy_report(full, _dense(diagonal)))
        decisions.add(fast.finite)
        # full reference, commutative argument
        _assert_divergences_agree(
            relative_entropy_report(diagonal, full),
            relative_entropy_report(_dense(diagonal), full),
        )
    assert decisions == {True, False}


def test_sums_and_mixes_keep_an_algebra_only_when_every_operand_has_it():
    diagonal = _diagonal([0.6, 0.4])
    plus = StateFunctional.from_density(PLUS)
    for combined in (total_functional([diagonal, plus]), mix(diagonal, plus, 0.5)):
        assert combined.algebra.blocks == (2,)
        # read as a diagonal, the off-diagonal mass would vanish from the spectrum
        spectrum = np.linalg.eigvalsh(combined.density)[::-1]
        reference = _dense(_diagonal([0.5, 0.5]))
        expected = float(
            np.sum(spectrum * np.log(spectrum)) - np.log(0.5) * np.trace(combined.density).real
        )
        assert abs(relative_entropy_report(combined, reference).value - expected) <= TOL
    assert total_functional([diagonal, diagonal]).algebra is diagonal.algebra
    assert mix(diagonal, diagonal, 0.3).algebra is diagonal.algebra


def test_commutative_information_needs_no_eigensolve(rng, monkeypatch):
    space, zeta = _instance(rng, 16)
    state, part = embed_diagonal(space, zeta)
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    information(state, part)
    _diagonal(space.measure)
    assert calls == []
    assert all(branch.algebra is state.algebra for branch in part.branch_preduals(state))
    assert part.total_predual(state).algebra is state.algebra


def test_commutative_positivity_check_reads_the_diagonal():
    with pytest.raises(NotPositiveSemidefinite):
        _diagonal([1.1, -0.1])


def test_only_exactly_diagonal_maps_keep_the_commutative_algebra():
    state = _diagonal([0.5, 0.3, 0.2])
    tiny = np.diag([1.0, 0.5, 0.5]).astype(complex)
    tiny[0, 1] = 1e-300  # off-diagonal but nonzero: no tolerance drops it
    leaky = KrausMap((tiny,))
    assert predual_apply(leaky, state).algebra.blocks == (3,)
    assert np.array_equal(
        predual_apply(leaky, state).density, predual_apply(leaky, _dense(state)).density
    )
    rest = np.diag([0.0, math.sqrt(0.75), math.sqrt(0.75)])
    mixed = Partition((leaky, KrausMap((rest,))))
    assert mixed.total_predual(state).algebra.blocks == (3,)
    diagonal = Partition(
        (KrausMap((np.diag([1.0, 0.6, 0.0]),)), KrausMap((np.diag([0.0, 0.8, 1.0]),)))
    )
    after = diagonal.total_predual(state)
    assert after.algebra is state.algebra
    assert np.abs(after.density - diagonal.total_predual(_dense(state)).density).max() <= TOL


def _diagonal_map(rng, count, d, complex_entries):
    """A sub-unital map of `count` exactly diagonal Kraus elements with nonzero diagonals."""
    diag = rng.uniform(0.1, 1.0, size=(count, d)) * rng.choice([-1.0, 1.0], size=(count, d))
    if complex_entries:
        diag = diag * np.exp(2j * np.pi * rng.random((count, d)))
    diag = diag / np.sqrt((np.abs(diag) ** 2).sum(axis=0).max())
    return KrausMap(tuple(np.diag(row) for row in diag))


def _dense_product(first, second):
    """The batched matmul that forms {L @ K}, K-major, for any factors."""
    prod = second._stack[None, :, :, :] @ first._stack[:, None, :, :]
    return prod.reshape(-1, second.dim_out, first.dim_in)


def test_diagonal_products_match_the_dense_matmul(rng):
    eps = np.finfo(float).eps
    for t in range(200):
        complex_entries = t % 2 == 1
        d = 1 + t % 6
        first = _diagonal_map(rng, int(rng.integers(1, 5)), d, complex_entries)
        second = _diagonal_map(rng, int(rng.integers(1, 5)), d, complex_entries)
        assert first._diagonal_weights is not None and second._diagonal_weights is not None
        fast = _dense_stack(_product_diagonals(first, second))
        dense = _dense_product(first, second)
        assert fast.shape == dense.shape
        if not complex_entries:
            # a real product has one rounding either way
            assert np.array_equal(fast, dense)
            continue
        # a complex product rounds differently when the GEMM fuses multiply and add;
        # either rounding is within 1.5 eps of |l| |k|, so the two differ by less than 4 eps
        k = np.abs(np.diagonal(first._stack, axis1=1, axis2=2))
        l = np.abs(np.diagonal(second._stack, axis1=1, axis2=2))
        scale = (k[:, None, :] * l[None, :, :]).reshape(-1, d)
        gap = fast - dense
        assert (np.abs(np.diagonal(gap, axis1=1, axis2=2)) <= 4 * eps * scale).all()
        assert np.count_nonzero(fast) == np.count_nonzero(np.diagonal(fast, axis1=1, axis2=2))
        assert np.count_nonzero(gap) == np.count_nonzero(np.diagonal(gap, axis1=1, axis2=2))


def test_diagonal_unit_image_is_real_and_sums_the_kraus_squares(rng):
    for t in range(40):
        m = _diagonal_map(rng, 1 + t % 4, 1 + t % 6, t % 2 == 1)
        assert m.unit_image.dtype == np.float64
        expected = sum(k.conj().T @ k for k in m.kraus)
        assert np.abs(m.unit_image - expected).max() <= 1e-15


def test_an_off_diagonal_entry_past_the_first_element_takes_the_dense_path():
    leaky = np.diag([0.5, 0.5, 0.5]).astype(complex)
    leaky[2, 1] = 1e-300
    m = KrausMap((np.diag([0.5, 0.5, 0.5]), leaky))
    assert m._diagonal_weights is None
    assert m.unit_image.dtype == np.complex128
    # the leaky map beside a diagonal one that completes its unit sum: every
    # pair of the join, leaky or not, is the dense product of its factors
    zeta = Partition((m, KrausMap((np.diag([0.5, 0.5, 0.5]), np.diag([0.5, 0.5, 0.5])))))
    joint = compose(zeta, zeta)
    for composite, (first, second) in zip(joint.maps, ((a, b) for a in zeta for b in zeta)):
        assert np.array_equal(composite._stack, _dense_product(first, second))
    assert predual_apply(m, _diagonal([0.5, 0.3, 0.2])).algebra.blocks == (3,)


def test_diagonal_by_dense_compose_matches_the_dense_product(rng):
    diagonal = Partition(
        (KrausMap((np.diag([1.0, 0.6, 0.0]),)), KrausMap((np.diag([0.0, 0.8, 1.0]),)))
    )
    dense = random_partition(rng, 3, outcomes=2, kraus_per_map=2)
    for zeta, eta in ((diagonal, dense), (dense, diagonal)):
        joint = compose(zeta, eta)
        assert joint.size == zeta.size * eta.size
        for m, (mi, mj) in zip(joint.maps, ((a, b) for a in zeta.maps for b in eta.maps)):
            assert m.label == (mi.label, mj.label)
            expected = np.array([l @ k for k in mi.kraus for l in mj.kraus])
            assert np.abs(m._stack - expected).max() <= 1e-15


def test_diagonal_maps_keep_the_sub_unitality_check():
    with pytest.raises(ValidationFailure, match="sub-unital"):
        KrausMap((np.diag([math.sqrt(1.0 + 1e-6), 0.5]),))
    with pytest.raises(ValidationFailure, match="sub-unital"):
        KrausMap((np.diag([math.sqrt(0.5 + 5e-7), 0.5]), np.diag([math.sqrt(0.5), 0.5])))
    assert KrausMap((np.diag([1.0, 0.5]),)).unit_image[0, 0] == 1.0


def test_dense_engine_meets_the_markov_rate_on_the_full_algebra():
    """The embedded window state re-declared on the full algebra keeps the
    dense engine under the Markov closed form."""
    shift = SymbolicShift(np.array([[0.7, 0.3], [0.2, 0.8]]))
    for n, value in enumerate(markov_entropy_sequence(shift, depth=4).values, start=1):
        present = shift.coordinate_indicator(n + 1, [n])
        past = shift.coordinate_indicator(n + 1, range(n))
        state, q_present = embed_diagonal(shift.word_space(n + 1), present)
        _, q_past = embed_diagonal(shift.word_space(n + 1), past)
        dense = StateFunctional.from_density(state.density)
        assert dense.algebra.blocks == (state.dim,)
        assert abs(conditional_information(dense, q_present, q_past) - value) <= 1e-8, f"n={n}"
