import numpy as np
import pytest
import scipy.linalg

from qde.errors import NotPositiveSemidefinite, ResourceCapExceeded, ValidationFailure
from qde.linalg import (
    BlockAlgebra,
    as_hermitian,
    dagger,
    direct_sum,
    hermitian_basis,
    matrix_log_on_support,
    power_on_support,
    spectral_decompose,
    support_projection,
    tensor,
)

from conftest import PLUS, SX


def random_hermitian(rng, d):
    a = rng.uniform(-1, 1, size=(d, d)) + 1j * rng.uniform(-1, 1, size=(d, d))
    return 0.5 * (a + dagger(a))


def test_spectral_identity():
    w, v = spectral_decompose(np.eye(3, dtype=complex))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(v @ dagger(v), np.eye(3))


def test_spectral_diagonal_descending():
    w, v = spectral_decompose(np.diag([2.0, -1.0]).astype(complex))
    assert np.allclose(w, [2.0, -1.0])
    assert np.allclose(np.abs(v), np.eye(2))


def test_spectral_pauli_x():
    # hand diagonalization: eigenvalues (1, -1), eigenvectors (1, +-1)/sqrt(2)
    w, v = spectral_decompose(SX)
    assert np.allclose(w, [1.0, -1.0])
    for col, expect in zip(v.T, (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2))):
        overlap = abs(np.vdot(col, expect))
        assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v @ np.diag(w) @ dagger(v) - SX) < 1e-12


def test_spectral_reconstruction_random(rng):
    for d in range(2, 9):
        a = random_hermitian(rng, d)
        w, v = spectral_decompose(a)
        err = np.linalg.norm(v @ np.diag(w) @ dagger(v) - a)
        assert err <= 1e-9 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(dagger(v) @ v - np.eye(d)) <= 1e-10


def test_log_identity_is_zero():
    log, proj = matrix_log_on_support(np.eye(2, dtype=complex))
    assert np.allclose(log, 0)
    assert np.allclose(proj, np.eye(2))


def test_log_scalar_values():
    log, _ = matrix_log_on_support(np.diag([0.5, 0.5]).astype(complex))
    assert np.allclose(log, np.diag([np.log(0.5)] * 2))


def test_log_on_partial_support():
    log, proj = matrix_log_on_support(np.diag([0.9, 0.1, 0.0]).astype(complex))
    assert np.allclose(np.diag(log), [np.log(0.9), np.log(0.1), 0.0])
    assert int(round(np.real(np.trace(proj)))) == 2


def test_log_recovers_exponent(rng):
    a = random_hermitian(rng, 4)
    w, v = spectral_decompose(a)
    exp_a = (v * np.exp(w)) @ dagger(v)
    log, _ = matrix_log_on_support(exp_a)
    assert np.linalg.norm(log - a) < 1e-8


def test_log_rejects_negative():
    with pytest.raises(NotPositiveSemidefinite):
        matrix_log_on_support(np.diag([1.0, -1e-6]).astype(complex))


def test_tensor_basics():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(
        tensor(np.diag([1.0, 0]), np.diag([1.0, 0])), np.diag([1.0, 0, 0, 0])
    )
    e1 = np.array([1, 0], dtype=complex)
    vec = np.kron(e1, e1)
    out = tensor(SX, SX) @ vec
    assert np.allclose(out, np.kron([0, 1], [0, 1]))


def test_tensor_cap():
    with pytest.raises(ResourceCapExceeded):
        tensor(np.eye(70), np.eye(70))


def test_support_projection():
    assert np.allclose(support_projection(np.diag([0.3, 0.7]).astype(complex)), np.eye(2))
    assert np.allclose(support_projection(np.diag([1.0, 0.0]).astype(complex)), np.diag([1.0, 0]))
    p = support_projection(PLUS)
    assert np.allclose(p @ p, p)
    assert np.allclose(p, PLUS)


def test_support_projection_commutes(rng):
    for _ in range(20):
        g = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        a = g @ dagger(g)
        p = support_projection(a)
        assert np.linalg.norm(p @ a - a) < 1e-9
        assert np.linalg.norm(p @ a - a @ p) < 1e-9
        assert np.linalg.norm(p @ p - p) < 1e-9


def test_power_on_support_inverse_sqrt():
    a = np.diag([4.0, 9.0]).astype(complex)
    assert np.allclose(power_on_support(a, -0.5), np.diag([0.5, 1.0 / 3.0]))


def test_as_hermitian_rejects():
    with pytest.raises(ValidationFailure):
        as_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert len(basis) == 8
    for i, a in enumerate(basis):
        assert np.linalg.norm(a - dagger(a)) < 1e-12
        assert abs(np.trace(a)) < 1e-12
        for j, b in enumerate(basis):
            expected = 1.0 if i == j else 0.0
            assert np.trace(a @ b) == pytest.approx(expected, abs=1e-12)


def test_block_algebra():
    alg = BlockAlgebra((2, 1))
    assert alg.dim == 3
    m = np.arange(9, dtype=complex).reshape(3, 3)
    projected = alg.project(m)
    assert projected[0, 2] == 0 and projected[2, 0] == 0
    assert alg.off_block_norm(projected) == 0.0
    with pytest.raises(ValidationFailure):
        BlockAlgebra((0,))


def test_direct_sum_matches_scipy_block_diag():
    rng = np.random.default_rng(5)
    for _ in range(50):
        blocks = []
        for rows, cols in rng.integers(1, 5, size=(rng.integers(1, 5), 2)):
            block = rng.normal(size=(rows, cols))
            if rng.random() < 0.5:
                block = block + 1j * rng.normal(size=(rows, cols))
            blocks.append(block)
        got = direct_sum(blocks)
        want = scipy.linalg.block_diag(*[np.asarray(b, dtype=complex) for b in blocks])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
