"""Regression tests of the dense kernels against their loop definitions.

The divergence engine's eigenbasis projection and the Kraus-layer actions are
stacked matrix products; each test here compares one of them with the plain
formula it replaces, at the sizes the library and its benchmark use.
"""

import math

import numpy as np
import pytest

from qde.errors import DimensionMismatch, NotPositiveSemidefinite, ValidationFailure
from qde.linalg import BlockAlgebra
from qde.partitions import (
    Automorphism,
    KrausMap,
    Partition,
    choi_matrix,
    compose,
    conjugate,
    kraus_from_choi,
)
from qde.states import DivergenceEngine, StateFunctional, mix, total_functional

from oracles import dag
from oracles import predual as oracle_predual
from oracles import rel_entropy as oracle_rel_entropy


def random_density(rng, d, rank=None, weight=1.0):
    g = rng.normal(size=(d, rank or 2 * d)) + 1j * rng.normal(size=(d, rank or 2 * d))
    rho = g @ dag(g)
    return weight * rho / np.real(np.trace(rho))


def random_kraus(rng, count, d_out, d_in, scale=0.9):
    """A sub-unital family: sum K^dag K has largest eigenvalue `scale`."""
    ks = rng.normal(size=(count, d_out, d_in)) + 1j * rng.normal(size=(count, d_out, d_in))
    top = np.max(np.linalg.eigvalsh(sum(dag(k) @ k for k in ks)))
    return [np.sqrt(scale / top) * k for k in ks]


def unit_sum_kraus(rng, count, d):
    """A family with sum K^dag K = I exactly (up to rounding)."""
    ks = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    w, v = np.linalg.eigh(sum(dag(k) @ k for k in ks))
    inv_sqrt = (v / np.sqrt(w)) @ dag(v)
    return [k @ inv_sqrt for k in ks]


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- divergence engine -----------------------------------------------------------


@pytest.mark.parametrize("d", [2, 16, 64, 128])
@pytest.mark.parametrize("weight", [1.0, 0.3])
def test_divergence_engine_matches_oracle(rng, d, weight):
    sigma = random_density(rng, d)
    engine = DivergenceEngine(StateFunctional.from_density(sigma))
    for _ in range(2):
        rho = random_density(rng, d, weight=weight)
        report = engine.report(StateFunctional.from_density(rho))
        assert report.finite
        assert report.value == pytest.approx(oracle_rel_entropy(rho, sigma), abs=1e-10)


@pytest.mark.parametrize("d", [2, 16, 64, 128])
def test_divergence_engine_rank_deficient_reference(rng, d):
    half = d // 2
    basis = random_unitary(rng, d)[:, :half]
    core = random_density(rng, half)
    sigma = basis @ core @ dag(basis)
    engine = DivergenceEngine(StateFunctional.from_density(sigma))

    inside = basis @ random_density(rng, half, weight=0.7) @ dag(basis)
    report = engine.report(StateFunctional.from_density(inside))
    assert report.finite
    assert report.value == pytest.approx(oracle_rel_entropy(inside, sigma), abs=1e-10)

    outside = random_density(rng, d)
    report = engine.report(StateFunctional.from_density(outside))
    assert report.value == math.inf
    assert report.off_support_mass == pytest.approx(
        1.0 - np.real(np.trace(basis @ dag(basis) @ outside)), abs=1e-10
    )


def _rotated(u, spectrum):
    """u diag(spectrum) u^dag as a functional on the full algebra, taken as given."""
    density = (u * np.asarray(spectrum, dtype=float)) @ dag(u)
    return StateFunctional._trusted(density, BlockAlgebra.full(len(spectrum)))


# reference spectrum, argument spectrum with one zero entry, decision; the
# argument and the reference share an eigenbasis, so an argument whose zero
# is perturbed differs from its clamped twin along one eigenvector only
CLAMP_CASES = [
    ([0.5, 0.3, 0.2], [0.6, 0.4, 0.0], "finite"),
    ([0.6, 0.4, 0.0], [0.5, 0.0, 0.5], "inf"),
]


@pytest.mark.parametrize("reference,argument,decision", CLAMP_CASES)
def test_dense_report_clamps_a_spectrum_just_below_zero(rng, reference, argument, decision):
    u = random_unitary(rng, len(reference))
    engine = DivergenceEngine(_rotated(u, reference))
    twin = engine.report(_rotated(u, argument))
    perturbed = list(argument)
    perturbed[argument.index(0.0)] = -5e-11  # inside NEGATIVE_EIGENVALUE_TOL = 1e-10
    got = engine.report(_rotated(u, perturbed))
    assert math.isfinite(got.value) == (decision == "finite")
    if decision == "finite":
        assert got.value == pytest.approx(twin.value, abs=1e-12)
    else:
        assert got.value == twin.value == math.inf
    for margin in ("off_support_mass", "smallest_retained_reference", "smallest_retained_argument"):
        assert getattr(got, margin) == pytest.approx(getattr(twin, margin), abs=1e-12)


@pytest.mark.parametrize("reference,argument,decision", CLAMP_CASES)
def test_dense_report_rejects_a_spectrum_past_the_clamp(rng, reference, argument, decision):
    u = random_unitary(rng, len(reference))
    engine = DivergenceEngine(_rotated(u, reference))
    perturbed = list(argument)
    perturbed[argument.index(0.0)] = -2e-10
    with pytest.raises(NotPositiveSemidefinite):
        engine.report(_rotated(u, perturbed))


# --- Kraus layer -----------------------------------------------------------------


@pytest.mark.parametrize("count,d_out,d_in", [(1, 2, 2), (3, 2, 3), (4, 3, 2), (5, 4, 4)])
def test_choi_matrix_is_sum_of_vec_outer_products(rng, count, d_out, d_in):
    ks = random_kraus(rng, count, d_out, d_in)
    expected = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in ks:
        v = k.T.reshape(-1)
        expected += np.outer(v, v.conj())
    assert np.allclose(choi_matrix(KrausMap(tuple(ks))), expected, atol=1e-14)


@pytest.mark.parametrize("count,d_out,d_in", [(3, 2, 3), (5, 3, 3)])
def test_kraus_from_choi_reproduces_the_action(rng, count, d_out, d_in):
    m = KrausMap(tuple(random_kraus(rng, count, d_out, d_in)))
    minimal = kraus_from_choi(choi_matrix(m), d_in, d_out)
    assert len(minimal.kraus) <= d_in * d_out
    assert all(k.shape == (d_out, d_in) for k in minimal.kraus)
    rho = random_density(rng, d_in)
    assert np.allclose(minimal.predual(rho), m.predual(rho), atol=1e-12)


def test_compose_kraus_order_is_l_after_k_k_major(rng):
    ks = unit_sum_kraus(rng, 3, 3)
    ls = unit_sum_kraus(rng, 2, 3)
    zeta = Partition((KrausMap((ks[0], ks[1]), "a"), KrausMap((ks[2],), "b")))
    eta = Partition((KrausMap((ls[0],), "x"), KrausMap((ls[1],), "y")))
    joint = compose(zeta, eta)
    assert joint.labels == (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))
    for m in joint.maps:
        first = zeta.maps[zeta.labels.index(m.label[0])]
        second = eta.maps[eta.labels.index(m.label[1])]
        expected = [l @ k for k in first.kraus for l in second.kraus]
        assert len(m.kraus) == len(expected)
        for got, want in zip(m.kraus, expected):
            assert np.allclose(got, want, atol=1e-15)


@pytest.mark.parametrize("count,d_out,d_in", [(1, 3, 3), (4, 2, 3), (6, 4, 4)])
def test_predual_unit_image_and_apply_match_loops(rng, count, d_out, d_in):
    ks = random_kraus(rng, count, d_out, d_in)
    m = KrausMap(tuple(ks))
    rho = random_density(rng, d_in)
    x = rng.normal(size=(d_out, d_out)) + 1j * rng.normal(size=(d_out, d_out))
    assert np.allclose(m.predual(rho), oracle_predual(ks, rho), atol=1e-14)
    assert np.allclose(m.unit_image, sum(dag(k) @ k for k in ks), atol=1e-14)
    assert np.allclose(m.apply(x), sum(dag(k) @ x @ k for k in ks), atol=1e-13)


def test_conjugate_matches_loop(rng):
    ks = unit_sum_kraus(rng, 3, 3)
    zeta = Partition((KrausMap((ks[0], ks[1])), KrausMap((ks[2],))))
    u = random_unitary(rng, 3)
    moved = conjugate(Automorphism(u), zeta)
    for m_old, m_new in zip(zeta.maps, moved.maps):
        for k, got in zip(m_old.kraus, m_new.kraus, strict=True):
            assert np.allclose(got, u @ k @ dag(u), atol=1e-14)


def test_krausmap_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatch):
        KrausMap((np.eye(2), np.eye(3)))
    with pytest.raises(DimensionMismatch):
        KrausMap((np.eye(2), np.zeros((2, 3))))
    with pytest.raises(DimensionMismatch):
        KrausMap((np.ones(2),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_krausmap_rejects_nonfinite_entries(bad):
    k = 0.5 * np.eye(2, dtype=complex)
    k[1, 0] = bad
    with pytest.raises(ValidationFailure):
        KrausMap((0.5 * np.eye(2), k))


def test_stored_kraus_elements_are_read_only_copies():
    k = 0.5 * np.eye(2, dtype=complex)
    m = KrausMap((k, k.copy()))
    for stored in m.kraus:
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 1.0
    k[0, 0] = 0.9  # the caller's array stays its own
    assert m.kraus[0][0, 0] == 0.5


def _rank_deficient_choi(rng, d):
    """A map's Kraus family and Choi matrix, plus a unit vector in the Choi kernel."""
    ks = [0.5 * k for k in unit_sum_kraus(rng, 2, d)]
    choi = choi_matrix(KrausMap(tuple(ks)))
    w, v = np.linalg.eigh(choi)
    assert w[0] < 1e-12  # rank 2 of d * d
    return ks, choi, v[:, 0]


def test_kraus_from_choi_rejects_a_non_hermitian_matrix(rng):
    _, choi, _ = _rank_deficient_choi(rng, 2)
    bad = choi.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(ValidationFailure):
        kraus_from_choi(bad, 2, 2)


def test_kraus_from_choi_rejects_an_eigenvalue_past_its_clamp(rng):
    _, choi, kernel = _rank_deficient_choi(rng, 2)
    with pytest.raises(NotPositiveSemidefinite):
        kraus_from_choi(choi - 1e-7 * np.outer(kernel, kernel.conj()), 2, 2)


def test_kraus_from_choi_clamps_a_small_negative_eigenvalue(rng):
    ks, choi, kernel = _rank_deficient_choi(rng, 3)
    rebuilt = kraus_from_choi(choi - 1e-9 * np.outer(kernel, kernel.conj()), 3, 3)
    # the clamped Choi matrix is the unperturbed one, so the action is the family's
    assert len(rebuilt.kraus) == 2
    rho = random_density(rng, 3)
    assert np.allclose(rebuilt.predual(rho), oracle_predual(ks, rho), rtol=0, atol=1e-12)


def test_kraus_from_choi_of_zero_is_one_zero_element():
    m = kraus_from_choi(np.zeros((6, 6), dtype=complex), 2, 3)
    assert len(m.kraus) == 1
    assert m.kraus[0].shape == (3, 2)
    assert not m.kraus[0].any()


# --- shared algebras and exact rescaling -------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 5])
def test_full_algebra_is_shared_per_dimension(rng, d):
    assert BlockAlgebra.full(d) is BlockAlgebra.full(d)
    shared = StateFunctional.from_density(random_density(rng, d))
    own = StateFunctional.from_density(random_density(rng, d), BlockAlgebra((d,)))
    assert shared.algebra is BlockAlgebra.full(d)
    assert own.algebra is not shared.algebra
    for combined in (total_functional([shared, own]), mix(shared, own, 0.3), mix(own, shared, 0.3)):
        assert combined.algebra.blocks == (d,)
        assert not combined.algebra.is_commutative


def _random_functionals(rng):
    for d in (1, 2, 3, 4):
        yield StateFunctional.from_density(random_density(rng, d))
        branch = random_density(rng, d, rank=1, weight=0.4)
        yield StateFunctional._trusted(branch, BlockAlgebra.full(d))
    for d in (2, 3, 5):
        probs = rng.random(d)
        probs[0] = 0.0
        diagonal = np.diag(probs / probs.sum()).astype(complex)
        yield StateFunctional.from_density(diagonal, BlockAlgebra.commutative(d))


def test_scale_equals_the_symmetrized_product_bitwise(rng):
    for phi in _random_functionals(rng):
        for c in (0.0, 1.0, 0.37, 1.0 / 3e-14, 2.5e10, float(rng.random())):
            got = phi.scale(c)
            want = StateFunctional._trusted(c * phi.density, phi.algebra)
            assert got.algebra is phi.algebra
            if c > 0:
                assert got.density.tobytes() == want.density.tobytes()
            else:  # zeros of either sign: equal values, not equal bits
                assert np.array_equal(got.density, want.density)
            assert np.array_equal(got.density, got.density.conj().T)
            assert not got.density.flags.writeable
