"""Regression tests of the dense kernels against their loop definitions.

The divergence engine's eigenbasis projection and the Kraus-layer actions are
stacked matrix products; each test here compares one of them with the plain
formula it replaces, at the sizes the library and its benchmark use.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qde.classical import SymbolicShift, embed_diagonal
from qde.errors import DimensionMismatch, NotPositiveSemidefinite, ValidationFailure
from qde import defaults, partitions
from qde.linalg import BlockAlgebra
from qde.properties import random_partition
from qde.partitions import (
    Automorphism,
    KrausMap,
    Partition,
    _Diagonals,
    choi_matrix,
    compose,
    conjugate,
    kraus_from_choi,
    predual_apply,
    tensor_partition,
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
    (minimal,) = kraus_from_choi(choi_matrix(m)[None], d_in, d_out, [None])
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
        kraus_from_choi(bad[None], 2, 2, [None])


def test_kraus_from_choi_rejects_an_eigenvalue_past_its_clamp(rng):
    _, choi, kernel = _rank_deficient_choi(rng, 2)
    with pytest.raises(NotPositiveSemidefinite):
        kraus_from_choi((choi - 1e-7 * np.outer(kernel, kernel.conj()))[None], 2, 2, [0])


def test_kraus_from_choi_clamps_a_small_negative_eigenvalue(rng):
    ks, choi, kernel = _rank_deficient_choi(rng, 3)
    (rebuilt,) = kraus_from_choi((choi - 1e-9 * np.outer(kernel, kernel.conj()))[None], 3, 3, [0])
    # the clamped Choi matrix is the unperturbed one, so the action is the family's
    assert len(rebuilt.kraus) == 2
    rho = random_density(rng, 3)
    assert np.allclose(rebuilt.predual(rho), oracle_predual(ks, rho), rtol=0, atol=1e-12)


def test_kraus_from_choi_of_zero_is_one_zero_element():
    (m,) = kraus_from_choi(np.zeros((6, 6), dtype=complex)[None], 2, 3, [None])
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


# --- stacked composite and branch builders ------------------------------------------


def _reference_composite(first, second):
    """The composite of one pair built alone: Kraus stack and unit image.

    Products L @ K (diagonals multiplied elementwise when both factors are
    exactly diagonal); past dim_in * dim_out of them, the Choi matrix, its
    eigh, the clamp and the keep rule of the minimal family.
    """
    d_in, d_out = first.dim_in, second.dim_out
    ks, ls = first._stack, second._stack
    if first._diagonal_weights is not None and second._diagonal_weights is not None:
        stack = np.array([np.diag(np.diag(k) * np.diag(l)) for k in ks for l in ls])
    else:
        stack = np.array([l @ k for k in ks for l in ls])
    if len(stack) > d_in * d_out:
        vecs = stack.transpose(0, 2, 1).reshape(len(stack), -1)
        choi = vecs.T @ vecs.conj()
        w, v = np.linalg.eigh(0.5 * (choi + dag(choi)))
        assert w[0] >= -1e-8
        w = np.maximum(w[::-1], 0.0)
        keep = w > 1e-14 * max(w[0], 1.0)
        if keep.any():
            cols = v[:, ::-1][:, keep] * np.sqrt(w[keep])
            stack = cols.T.reshape(-1, d_in, d_out).transpose(0, 2, 1)
        else:
            stack = np.zeros((1, d_out, d_in), dtype=complex)
    diag = np.diagonal(stack, axis1=1, axis2=2)
    if d_in == d_out and np.count_nonzero(stack) == np.count_nonzero(diag):
        return stack, np.diag((diag.real**2 + diag.imag**2).sum(axis=0))
    rows = stack.reshape(-1, d_in)
    s = dag(rows) @ rows
    return stack, 0.5 * (s + dag(s))


def _split_partition(rng, d, counts, diagonal=(), zero=(), rank_one=()):
    """Outcomes with the given Kraus counts, completed to a partition by one more outcome.

    Outcomes in `diagonal` have diagonal elements, in `zero` zero elements,
    and in `rank_one` multiples of one matrix (a rank-deficient Choi
    matrix).  A scalar keeps them sub-unital and diagonal; the completing
    outcome sqrt(I - sum K^dag K) is diagonal when they all are.
    """
    ks = []
    for t, c in enumerate(counts):
        if t in diagonal:
            fam = [np.diag(rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(c)]
        elif t in rank_one:
            k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            fam = [rng.normal() * k for _ in range(c)]
        else:
            fam = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(c)]
        ks.append([0.0 * k for k in fam] if t in zero else fam)
    top = np.linalg.eigvalsh(sum(dag(k) @ k for fam in ks for k in fam))[-1]
    ks = [[k / np.sqrt(1.25 * top) for k in fam] for fam in ks]
    rest = np.eye(d) - sum(dag(k) @ k for fam in ks for k in fam)
    if np.count_nonzero(rest) == np.count_nonzero(np.diag(rest)):
        completion = np.diag(np.sqrt(np.diag(rest).real))
    else:
        w, v = np.linalg.eigh(0.5 * (rest + dag(rest)))
        completion = (v * np.sqrt(w)) @ dag(v)
    maps = tuple(KrausMap(tuple(fam)) for fam in ks) + (KrausMap((completion,)),)
    return Partition(maps)


def _mixes(rng):
    """(zeta, eta) pairs: mixed Kraus counts, zero, rank-deficient and diagonal outcomes.

    Counts of d + 1 on both sides make products that need Choi compression.
    """
    for d in (2, 3):
        yield (
            _split_partition(rng, d, (1, 2, d + 1, d), zero=(2,), rank_one=(1,)),
            _split_partition(rng, d, (d + 1, 1, d), rank_one=(0,)),
        )
        yield (
            _split_partition(rng, d, (2, d + 1, 1), diagonal=(0, 1, 2)),
            _split_partition(rng, d, (d + 1, 2, 2, 1), diagonal=(0, 1), zero=(3,)),
        )
        yield (
            _split_partition(rng, d, (d, 1, 2), diagonal=(1,)),
            _split_partition(rng, d, (2, 2, d + 1, 1, 2), diagonal=(0, 1, 2, 3, 4)),
        )


@pytest.mark.parametrize("budget", [None, 1, 600])
def test_stacked_compose_is_bitwise_the_per_pair_build(rng, monkeypatch, budget):
    """`None` keeps the default stack size; a small budget spreads a join over many stacks."""
    if budget is not None:
        monkeypatch.setattr(partitions, "_STACK_BYTES", budget)
    for zeta, eta in _mixes(rng):
        joint = compose(zeta, eta)
        assert joint.labels == tuple((a, b) for a in zeta.labels for b in eta.labels)
        for m, (first, second) in zip(joint.maps, ((a, b) for a in zeta.maps for b in eta.maps)):
            stack, unit = _reference_composite(first, second)
            assert np.array_equal(m._stack, stack)
            assert np.array_equal(m.unit_image, unit)
            assert (m._diagonal_weights is None) == (unit.dtype == complex)
            assert not m._stack.flags.writeable and not m.unit_image.flags.writeable
        # the zero outcome composes to one zero element; a rank-deficient one stays short
        counts = [len(m.kraus) for m in joint.maps]
        assert max(counts) <= zeta.dim_in * eta.dim_out


def test_a_stack_with_one_member_past_sub_unitality_fails(rng):
    good = np.array(unit_sum_kraus(rng, 2, 3)) * 0.5
    bad = good * np.sqrt(4.0 * (1.0 + 1e-8))  # unit image 1 + 1e-8 > 1 + SUB_UNITALITY_TOL
    assert KrausMap._stacked([good, good.copy()], ["a", "b"])[1].label == "b"
    with pytest.raises(ValidationFailure, match="sub-unital"):
        KrausMap._stacked([good, bad, good.copy()], ["a", "b", "c"])
    with pytest.raises(ValidationFailure, match="sub-unital"):
        # another Kraus count: one unitary element, scaled past 1
        KrausMap._stacked([good, np.sqrt(1.0 + 1e-8) * random_unitary(rng, 3)[None]], ["a", "b"])
    nonfinite = good.copy()
    nonfinite[1, 2, 0] = math.nan
    with pytest.raises(ValidationFailure, match="non-finite"):
        KrausMap._stacked([good, nonfinite], ["a", "b"])


@pytest.mark.parametrize("defect", ["nan", "inf", "asymmetric", "negative"])
def test_a_choi_stack_with_one_bad_member_fails_closed(rng, defect):
    _, choi, kernel = _rank_deficient_choi(rng, 2)
    bad = choi.copy()
    if defect == "nan":
        bad[1, 2] = math.nan
    elif defect == "inf":
        bad[3, 3] = math.inf
    elif defect == "asymmetric":
        bad[0, 1] += 1e-6
    else:
        bad -= 1e-7 * np.outer(kernel, kernel.conj())
    stack = np.array([choi, bad, choi])
    assert len(kraus_from_choi(np.array([choi, choi]), 2, 2, ["a", "b"])) == 2
    error = NotPositiveSemidefinite if defect == "negative" else ValidationFailure
    with pytest.raises(error):
        kraus_from_choi(stack, 2, 2, ["a", "b", "c"])


def test_kraus_from_choi_checks_the_choi_size():
    with pytest.raises(DimensionMismatch):
        kraus_from_choi(0.1 * np.eye(6)[None], 2, 2, [0])
    with pytest.raises(DimensionMismatch):
        kraus_from_choi(0.1 * np.eye(9)[None], 2, 2, [0])
    with pytest.raises(DimensionMismatch):
        kraus_from_choi(0.1 * np.eye(4), 2, 2, [0] * 4)  # one matrix, not a stack
    with pytest.raises(DimensionMismatch):
        kraus_from_choi(0.1 * np.eye(4)[None], 2, 2, ["a", "b"])
    (m,) = kraus_from_choi(0.1 * np.eye(6)[None], 2, 3, ["a"])
    assert m.label == "a" and m.dim_in == 2 and m.dim_out == 3


@pytest.mark.parametrize("budget", [None, 1])
def test_branch_preduals_match_the_oracle(rng, monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(partitions, "_STACK_BYTES", budget)
    for zeta, eta in _mixes(rng):
        for part in (zeta, compose(zeta, eta)):
            d = part.dim_in
            probs = rng.random(d)
            for omega in (
                StateFunctional.from_density(random_density(rng, d)),
                StateFunctional.from_density(np.diag(probs / probs.sum()).astype(complex)),
                StateFunctional.from_density(
                    np.diag(probs / probs.sum()).astype(complex), BlockAlgebra.commutative(d)
                ),
            ):
                branches = part.branch_preduals(omega)
                assert len(branches) == part.size
                for m, branch in zip(part.maps, branches):
                    want = oracle_predual(m.kraus, omega.density)
                    assert np.abs(branch.density - want).max() <= 1e-14
                    single = predual_apply(m, omega)
                    assert np.array_equal(branch.density, single.density)
                    assert branch.algebra.blocks == single.algebra.blocks
                    assert not branch.density.flags.writeable


# --- maps held by their diagonals -----------------------------------------------------


def _held_partition(rng, d, counts):
    """Maps held by complex (count, d) diagonals with the given Kraus counts,
    scaled to a partition, and their twins built from the same diagonals as
    dense matrices through the public constructor."""
    rows = [rng.normal(size=(c, d)) + 1j * rng.normal(size=(c, d)) for c in counts]
    total = sum((np.abs(r) ** 2).sum(axis=0) for r in rows)
    rows = [r / np.sqrt(total) for r in rows]
    held = Partition(tuple(KrausMap(_Diagonals(r.copy()), label=t) for t, r in enumerate(rows)))
    dense = Partition(
        tuple(KrausMap(tuple(np.diag(x) for x in r), label=t) for t, r in enumerate(rows))
    )
    return held, dense


def _assert_same_dense_forms(got, want):
    assert np.array_equal(got._stack, want._stack)
    assert len(got.kraus) == len(want.kraus)
    assert all(np.array_equal(a, b) for a, b in zip(got.kraus, want.kraus))
    assert np.array_equal(got.unit_image, want.unit_image)
    assert got.unit_image.dtype == want.unit_image.dtype
    assert not got._stack.flags.writeable and not got.unit_image.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 5])
def test_diagonal_held_maps_equal_their_dense_twins_bitwise(rng, d):
    held, dense = _held_partition(rng, d, (1, 3, 2))
    probs = rng.random(d) + 0.1
    commutative = StateFunctional.from_density(
        np.diag(probs / probs.sum()).astype(complex), BlockAlgebra.commutative(d)
    )
    full = StateFunctional.from_density(random_density(rng, d))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for h, r in zip(held.maps, dense.maps):
        twin = h.relabel("twin")  # before any dense form exists
        assert h._diagonals is not None and not {"kraus", "_stack", "unit_image"} & set(vars(h))
        assert np.array_equal(h._diagonals, r._diagonals)
        assert np.array_equal(h._diagonal_weights, r._diagonal_weights)
        for omega in (commutative, full):
            got, want = predual_apply(h, omega), predual_apply(r, omega)
            assert np.array_equal(got.density, want.density)
            assert got.algebra.blocks == want.algebra.blocks
            # an image on a commutative algebra reads the weights only
            assert omega.algebra.is_commutative != ("_stack" in vars(h))
        assert np.array_equal(h.apply(x), r.apply(x))
        assert np.array_equal(h.predual(full.density), r.predual(full.density))
        assert np.array_equal(choi_matrix(h), choi_matrix(r))
        _assert_same_dense_forms(h, r)
        _assert_same_dense_forms(twin, r)
        assert twin.label == "twin" and h.label == r.label
    for omega in (commutative, full):
        for got, want in zip(held.branch_preduals(omega), dense.branch_preduals(omega)):
            assert np.array_equal(got.density, want.density)
    theta = Automorphism(random_unitary(rng, d))
    for got, want in zip(conjugate(theta, held).maps, conjugate(theta, dense).maps):
        _assert_same_dense_forms(got, want)
    small, small_dense = _held_partition(rng, 2, (2, 1))
    for got, want in zip(
        tensor_partition(held, small).maps, tensor_partition(dense, small_dense).maps
    ):
        assert got.label == want.label
        _assert_same_dense_forms(got, want)


@pytest.mark.parametrize("first", ["kraus", "_stack", "unit_image"])
def test_the_dense_forms_of_a_held_map_are_built_once(rng, monkeypatch, first):
    # lazy descriptors, not a __getattr__ hook that every attribute read would pay
    assert not hasattr(KrausMap, "__getattr__")
    held, dense = _held_partition(rng, 4, (2, 1, 3))
    built, dense_of = [], partitions._dense
    monkeypatch.setattr(partitions, "_dense", lambda rows: built.append(rows) or dense_of(rows))
    for h, r in zip(held.maps, dense.maps):
        getattr(h, first)
        reads = [(h.kraus, h._stack, h.unit_image) for _ in range(3)]
        assert all(x is y for read in reads for x, y in zip(read, reads[0]))
        assert all(k.base is h._stack for k in h.kraus)
        _assert_same_dense_forms(h, r)
    assert len(built) == held.size


def test_compose_of_diagonal_held_maps_equals_the_per_pair_reference(rng):
    """diag x diag within d^2 products (held), past it (Choi-compressed) and diag x dense."""
    uncompressed = _held_partition(rng, 3, (1, 2, 3)), _held_partition(rng, 3, (3, 1, 2))
    compressed = _held_partition(rng, 2, (3, 1)), _held_partition(rng, 2, (2, 1))
    (mixed, mixed_dense), other = _held_partition(rng, 3, (2, 1)), random_partition(rng, 3)
    cases = [
        (uncompressed[0], uncompressed[1]),
        (compressed[0], compressed[1]),
        ((mixed, mixed_dense), (other, other)),
        ((other, other), (mixed, mixed_dense)),
    ]
    for (zeta, zeta_dense), (eta, eta_dense) in cases:
        joint, joint_dense = compose(zeta, eta), compose(zeta_dense, eta_dense)
        pairs = [(a, b) for a in zeta_dense.maps for b in eta_dense.maps]
        for m, m_dense, (first, second) in zip(joint.maps, joint_dense.maps, pairs):
            assert m.label == m_dense.label == (first.label, second.label)
            both_diagonal = first._diagonals is not None and second._diagonals is not None
            count = len(first.kraus) * len(second.kraus)
            if both_diagonal and count <= first.dim_in**2:
                assert m._diagonals is not None and "_stack" not in vars(m)
            stack, unit = _reference_composite(first, second)
            assert np.array_equal(m._stack, stack) and np.array_equal(m_dense._stack, stack)
            assert np.array_equal(m.unit_image, unit) and np.array_equal(m_dense.unit_image, unit)
    assert any(len(m.kraus) < 6 for m in compose(*(p[0] for p in compressed)).maps)


def test_diagonal_held_maps_fail_closed():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationFailure, match="non-finite"):
            KrausMap(_Diagonals(np.array([[0.5, bad]], dtype=complex)))
    over = math.sqrt(1.0 + 2 * defaults.SUB_UNITALITY_TOL)
    with pytest.raises(ValidationFailure, match=r"not sub-unital: max eigenvalue 1\.000000002000$"):
        KrausMap(_Diagonals(np.array([[over, 0.5]], dtype=complex)))
    rows = np.array([[math.sqrt(0.5 + 1e-8), 0.5], [math.sqrt(0.5), 0.5]], dtype=complex)
    with pytest.raises(ValidationFailure, match="sub-unital"):  # two elements past 1 together
        KrausMap(_Diagonals(rows))
    tiny = np.diag([1.0, 0.5, 0.5]).astype(complex)
    tiny[2, 0] = 1e-300  # off-diagonal but nonzero: the map stays dense
    leaky = KrausMap((tiny,))
    assert leaky._diagonals is None and leaky._diagonal_weights is None
    assert np.array_equal(leaky._stack[0], tiny) and leaky.unit_image.dtype == complex
    for flat in (np.eye(2), np.diag([1.0, 0.5])):
        with pytest.raises(DimensionMismatch):
            KrausMap(flat)


def test_composing_the_largest_markov_window_keeps_no_dense_stacks():
    shift = SymbolicShift(np.array([[0.7, 0.3], [0.2, 0.8]]))
    space = shift.word_space(7)
    _, q_present = embed_diagonal(space, shift.coordinate_indicator(7, [6]))
    _, q_past = embed_diagonal(space, shift.coordinate_indicator(7, range(6)))
    assert q_present.dim_in == 128 and q_past.size == 64
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        joint = compose(q_present, q_past)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # dense diagonal stacks and unit images of the 128 composites would take about 48 MB
    assert grown < 4 * 2**20
    first, second = q_present.maps[1], q_past.maps[5]
    m = joint.maps[q_past.size + 5]
    assert m.label == (first.label, second.label) and len(m.kraus) == 1
    assert np.array_equal(m.kraus[0], np.diag(np.diag(first.kraus[0]) * np.diag(second.kraus[0])))
