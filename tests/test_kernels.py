"""Regression tests of the dense kernels against their loop definitions.

The divergence engine's eigenbasis projection and the Kraus-layer actions are
stacked matrix products; each test here compares one of them with the plain
formula it replaces, at the sizes the library and its benchmark use.
"""

import math

import numpy as np
import pytest

from qde.errors import DimensionMismatch, ValidationFailure
from qde.partitions import (
    Automorphism,
    KrausMap,
    Partition,
    choi_matrix,
    compose,
    conjugate,
    kraus_from_choi,
)
from qde.states import DivergenceEngine, StateFunctional

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
