import numpy as np
import pytest

from qde.errors import DimensionMismatch, ValidationFailure
from qde.linalg import dagger
from qde.partitions import (
    Automorphism,
    KrausMap,
    Partition,
    choi_matrix,
    compose,
    conjugate,
    kraus_from_choi,
    pinching_invariant_partition,
    predual_apply,
    tensor_partition,
    validate_partition,
    vn_partition,
)
from qde.properties import random_density, random_partition, random_unitary
from qde.states import StateFunctional

from conftest import I2, MINUS, P0, P1, PLUS, SX, SZ


def z_partition():
    return vn_partition([P0, P1])


def x_partition():
    return vn_partition([PLUS, MINUS])


def test_apply_projector():
    m = KrausMap((P0,))
    assert np.allclose(m.apply(I2), P0)


def test_apply_scaled_identity():
    m = KrausMap((I2 / np.sqrt(2),))
    assert np.allclose(m.apply(SZ), SZ / 2)


def test_apply_kills_off_diagonal():
    m = KrausMap((P0,))
    assert np.allclose(m.apply(SX), 0)


def test_predual_identity_channel():
    omega = StateFunctional.from_density(PLUS)
    out = predual_apply(KrausMap((I2,)), omega)
    assert np.allclose(out.density, omega.density)


def test_predual_projector():
    out = predual_apply(KrausMap((P0,)), StateFunctional.maximally_mixed(2))
    assert np.allclose(out.density, np.diag([0.5, 0]))


def test_predual_duality(rng):
    # trace(predual(rho) x) = trace(rho zeta(x)) on random pairs
    for _ in range(100):
        fam = tuple(
            rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(2)
        )
        scale = np.sqrt(np.max(np.linalg.eigvalsh(sum(dagger(k) @ k for k in fam))))
        m = KrausMap(tuple(k / scale for k in fam))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ dagger(g)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = x + dagger(x)
        lhs = np.trace(m.predual(rho) @ x)
        rhs = np.trace(rho @ m.apply(x))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_sub_unitality_enforced():
    with pytest.raises(ValidationFailure):
        KrausMap((1.1 * I2,))


def test_partition_unit_sum_enforced():
    with pytest.raises(ValidationFailure):
        Partition((KrausMap((0.9 * P0,)), KrausMap((P1,))))


def test_compose_with_trivial():
    z = z_partition()
    composed = compose(z, Partition.trivial(2))
    phi = StateFunctional.from_density(PLUS)
    for orig, comp in zip(z.maps, composed.maps):
        assert np.allclose(orig.predual(phi.density), comp.predual(phi.density))


def test_compose_projective_orthogonality():
    # P_i P_j = delta_ij P_i: cross branches are zero maps
    z = z_partition()
    composed = compose(z, z)
    phi = StateFunctional.maximally_mixed(2)
    weights = {m.label: predual_apply(m, phi).weight for m in composed.maps}
    assert weights[(0, 0)] == pytest.approx(0.5)
    assert weights[(1, 1)] == pytest.approx(0.5)
    assert weights[(0, 1)] == pytest.approx(0.0, abs=1e-14)
    assert weights[(1, 0)] == pytest.approx(0.0, abs=1e-14)


def test_compose_z_then_x_weights():
    # |<z_i|x_j>|^2 = 1/2: all four joint weights are 1/4 under I/2
    composed = compose(z_partition(), x_partition())
    phi = StateFunctional.maximally_mixed(2)
    for m in composed.maps:
        assert predual_apply(m, phi).weight == pytest.approx(0.25)


def test_compose_action_matches_heisenberg(rng):
    zeta = random_partition(rng, 3, 2, outcomes=2)
    eta = random_partition(rng, 2, 2, outcomes=2)
    composed = compose(zeta, eta)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = x + dagger(x)
    for mi in zeta.maps:
        for mj in eta.maps:
            comp = next(m for m in composed.maps if m.label == (mi.label, mj.label))
            assert np.linalg.norm(comp.apply(x) - mi.apply(mj.apply(x))) < 1e-10


def test_random_partition_fails_closed_on_elements_that_cannot_span_the_input(rng):
    # 2 outcomes x 1 element of 3 rows span at most 6 of 7 input dimensions
    with pytest.raises(ValidationFailure, match="2 outcomes x 1 Kraus elements of 3 rows.*dimension 7"):
        random_partition(rng, 7, 3, outcomes=2, kraus_per_map=1)
    # one more element per outcome reaches the input: the draw is a partition
    assert random_partition(rng, 7, 3, outcomes=2, kraus_per_map=2).unit_sum_residual < 1e-10


def test_compose_associative_up_to_labels(rng):
    a = random_partition(rng, 2, 3, outcomes=2)
    b = random_partition(rng, 3, 2, outcomes=2)
    c = random_partition(rng, 2, 2, outcomes=2)
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = x + dagger(x)
    for m_left, m_right in zip(left.maps, right.maps):
        assert np.linalg.norm(m_left.apply(x) - m_right.apply(x)) < 1e-9


def test_predual_of_compose_is_reversed_composition(rng):
    zeta = random_partition(rng, 2, 2, outcomes=2)
    eta = random_partition(rng, 2, 2, outcomes=2)
    composed = compose(zeta, eta)
    rho = np.diag([0.25, 0.75]).astype(complex)
    for mi in zeta.maps:
        for mj in eta.maps:
            comp = next(m for m in composed.maps if m.label == (mi.label, mj.label))
            assert np.linalg.norm(comp.predual(rho) - mj.predual(mi.predual(rho))) < 1e-9


def test_tensor_with_trivial():
    z = z_partition()
    big = tensor_partition(z, Partition.trivial(3))
    phi = StateFunctional.maximally_mixed(6)
    weights = [predual_apply(m, phi).weight for m in big.maps]
    assert weights == pytest.approx([0.5, 0.5])


def test_tensor_product_weights():
    big = tensor_partition(z_partition(), z_partition())
    phi = StateFunctional.maximally_mixed(4)
    for m in big.maps:
        assert predual_apply(m, phi).weight == pytest.approx(0.25)


def test_validate_projective_passes():
    report = validate_partition(z_partition())
    assert report.passed
    assert report.unit_sum_residual < 1e-12
    assert min(report.choi_min_eigenvalues) > -1e-12
    assert report.schwartz_min > -1e-10


def test_validate_random_with_absorber(rng):
    # sub-unital family completed to unit sum by the square root of the deficit
    from qde.linalg import power_on_support

    fams = []
    for _ in range(2):
        k = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        scale = np.sqrt(max(np.linalg.eigvalsh(dagger(k) @ k)) / 0.4)
        fams.append((k / scale,))
    deficit = np.eye(2) - sum(dagger(k[0]) @ k[0] for k in fams)
    absorber = power_on_support(deficit, 0.5)
    maps = tuple(KrausMap(f) for f in fams) + (KrausMap((absorber,)),)
    report = validate_partition(Partition(maps))
    assert report.passed


def test_conjugate_identity():
    z = z_partition()
    out = conjugate(Automorphism.identity(2), z)
    for a, b in zip(z.maps, out.maps):
        assert np.allclose(a.kraus[0], b.kraus[0])


def test_conjugate_by_sigma_x_flips():
    out = conjugate(Automorphism(SX), z_partition())
    assert np.allclose(out.maps[0].kraus[0], P1)
    assert np.allclose(out.maps[1].kraus[0], P0)


def test_conjugate_round_trip(rng):
    theta = Automorphism(random_unitary(rng, 2))
    zeta = random_partition(rng, 2, 2, outcomes=2)
    back = conjugate(theta.inverse(), conjugate(theta, zeta))
    for a, b in zip(zeta.maps, back.maps):
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x = x + dagger(x)
        assert np.linalg.norm(a.apply(x) - b.apply(x)) < 1e-10


def test_conjugate_action(rng):
    theta = Automorphism(random_unitary(rng, 2))
    zeta = random_partition(rng, 2, 2, outcomes=2)
    moved = conjugate(theta, zeta)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = x + dagger(x)
    for a, b in zip(zeta.maps, moved.maps):
        expect = theta.apply(a.apply(theta.inverse().apply(x)))
        assert np.linalg.norm(b.apply(x) - expect) < 1e-10


def test_vn_partition_trivial_and_z():
    assert vn_partition([np.eye(2, dtype=complex)]).size == 1
    assert z_partition().size == 2


def test_vn_partition_mixed_ranks():
    p_low = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p_high = np.diag([0.0, 0.0, 1.0]).astype(complex)
    part = vn_partition([p_low, p_high])
    total = sum(m.unit_image for m in part.maps)
    assert np.allclose(total, np.eye(3))


def test_vn_partition_rejections():
    with pytest.raises(ValidationFailure):
        vn_partition([0.5 * P0, P1])
    with pytest.raises(ValidationFailure):
        vn_partition([P0, PLUS])


def test_pinching_uniform():
    phi = StateFunctional.maximally_mixed(2)
    part = pinching_invariant_partition([P0, P1], phi)
    out = part.total_predual(phi)
    assert np.allclose(out.density, phi.density)


def test_pinching_weights():
    phi = StateFunctional.diagonal([0.9, 0.1])
    part = pinching_invariant_partition([P0, P1], phi)
    weights = [predual_apply(m, phi).weight for m in part.maps]
    assert weights == pytest.approx([0.9, 0.1])
    assert np.allclose(part.total_predual(phi).density, phi.density)


def test_pinching_rejects_noncommuting():
    with pytest.raises(ValidationFailure):
        pinching_invariant_partition([P0, P1], StateFunctional.from_density(PLUS))


def test_pinching_rejects_a_state_of_another_dimension():
    # not numpy's matmul error from the commutation check
    with pytest.raises(DimensionMismatch, match="^state dimension 3 vs projector dimension 2$"):
        pinching_invariant_partition([P0, P1], StateFunctional.maximally_mixed(3))


def test_pinching_rejects_an_empty_family():
    with pytest.raises(ValidationFailure, match="^empty projector family$"):
        pinching_invariant_partition([], StateFunctional.maximally_mixed(2))


def test_projector_families_of_mixed_dimensions_fail_closed():
    # not numpy's broadcasting error from the unit-sum check
    phi = StateFunctional.maximally_mixed(2)
    for build in (vn_partition, lambda projectors: pinching_invariant_partition(projectors, phi)):
        with pytest.raises(DimensionMismatch, match="^projectors of mixed dimensions$"):
            build([np.eye(2), np.zeros((3, 3))])


def test_pinching_zero_weight_block_keeps_unity():
    phi = StateFunctional.diagonal([1.0, 0.0])
    part = pinching_invariant_partition([P0, P1], phi)
    total = sum(m.unit_image for m in part.maps)
    assert np.allclose(total, np.eye(2))
    assert np.allclose(part.total_predual(phi).density, phi.density)


def test_choi_round_trip(rng):
    m = random_partition(rng, 2, 3, outcomes=1, kraus_per_map=4).maps[0]
    (rebuilt,) = kraus_from_choi(choi_matrix(m)[None], m.dim_in, m.dim_out, [None])
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = x + dagger(x)
    assert np.linalg.norm(rebuilt.apply(x) - m.apply(x)) < 1e-10
    assert len(rebuilt.kraus) <= m.dim_in * m.dim_out


def _explicit_composite_predual(first, second, rho):
    return sum(l @ k @ rho @ dagger(l @ k) for k in first.kraus for l in second.kraus)


def test_compress_preserves_action(rng):
    zeta = random_partition(rng, 2, 2, outcomes=1, kraus_per_map=3)
    eta = random_partition(rng, 2, 2, outcomes=1, kraus_per_map=3)
    (small,) = compose(zeta, eta).maps  # 9 products of 2x2 elements
    assert len(small.kraus) <= 4
    rho = np.diag([0.3, 0.7]).astype(complex)
    expected = _explicit_composite_predual(zeta.maps[0], eta.maps[0], rho)
    assert np.linalg.norm(small.predual(rho) - expected) < 1e-10


def test_compose_builds_each_composite_once(rng, monkeypatch):
    """compose builds a composite through `KrausMap.__post_init__` (a pair of
    exactly diagonal maps that needs no compression) or in a batch through
    `KrausMap._stacked`; both constructors are counted."""
    zeta = random_partition(rng, 2, 2, outcomes=2, kraus_per_map=3)
    eta = random_partition(rng, 2, 2, outcomes=2, kraus_per_map=3)
    validate, stacked = KrausMap.__post_init__, KrausMap._stacked.__func__
    builds = []

    def counting(self):
        builds.append(self.label)
        validate(self)

    def counting_stacked(cls, stacks, labels):
        builds.extend(labels)
        return stacked(cls, stacks, labels)

    monkeypatch.setattr(KrausMap, "__post_init__", counting)
    monkeypatch.setattr(KrausMap, "_stacked", classmethod(counting_stacked))
    joint = compose(zeta, eta)
    assert builds == [(i, j) for i in zeta.labels for j in eta.labels]
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    for m in joint.maps:
        assert len(m.kraus) <= 4  # 9 products, Choi-compressed
        first = zeta.maps[zeta.labels.index(m.label[0])]
        second = eta.maps[eta.labels.index(m.label[1])]
        expected = _explicit_composite_predual(first, second, rho)
        assert np.linalg.norm(m.predual(rho) - expected) < 1e-12
    # diagonal pairs, and batches of several Kraus counts: still one build each
    diagonal = Partition((KrausMap((np.diag([1.0, 0.6]),)), KrausMap((np.diag([0.0, 0.8]),))))
    inner = compose(joint, diagonal)
    builds.clear()
    joint = compose(diagonal, inner)
    assert sorted(builds, key=repr) == sorted(joint.labels, key=repr)
    assert len(set(builds)) == diagonal.size * inner.size == 16


def test_every_random_partition_validates(rng):
    for _ in range(10):
        zeta = random_partition(rng, 3, 3, outcomes=3, kraus_per_map=2)
        assert validate_partition(zeta, samples=20).passed


def test_automorphism_power_and_dims():
    theta = Automorphism(SX)
    assert np.allclose(theta.power(2).unitary, np.eye(2))
    assert np.allclose(theta.power(-1).unitary, SX)
    with pytest.raises(DimensionMismatch):
        conjugate(Automorphism.identity(3), z_partition())


def test_automorphism_rejects_nonunitary():
    with pytest.raises(ValidationFailure):
        Automorphism(np.array([[1, 1], [0, 1]], dtype=complex))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (1, 2, 2)])
def test_automorphism_rejects_a_non_square_unitary(shape):
    with pytest.raises(DimensionMismatch, match="square"):
        Automorphism(np.ones(shape, dtype=complex) / 2)


def test_automorphism_rejects_a_nan_or_empty_matrix():
    with pytest.raises(ValidationFailure, match="not unitary"):
        Automorphism(np.full((2, 2), np.nan))
    with pytest.raises(DimensionMismatch, match="nonempty"):
        Automorphism(np.zeros((0, 0)))


def _symmetrized_sum(part, omega):
    total = sum(m.predual(omega.density) for m in part.maps)
    return 0.5 * (total + dagger(total))


def test_total_predual_is_the_symmetrized_sum_of_the_map_images(rng):
    weights = rng.random(4)
    diagonal = StateFunctional.commutative(weights / weights.sum())
    d = np.sqrt(rng.dirichlet(np.ones(3), size=4).T)  # 3 diagonal maps on 4 points
    diagonal_part = Partition(tuple(KrausMap((np.diag(row),)) for row in d))
    full = random_partition(rng, 4, outcomes=3, kraus_per_map=2)
    # a diagonal map beside a non-diagonal one: |0><0| + |1><1| and the swap of 2, 3
    swap = np.zeros((4, 4))
    swap[2, 3] = swap[3, 2] = 1.0
    mixed = Partition((KrausMap((np.diag([1.0, 1.0, 0.0, 0.0]),)), KrausMap((swap,))))
    dense = StateFunctional.from_density(np.diag(weights / weights.sum()).astype(complex))
    cases = [(diagonal_part, diagonal), (full, diagonal), (full, dense), (mixed, diagonal)]
    cases.append((mixed, StateFunctional.from_density(random_density(rng, 4))))
    for part, omega in cases:
        out = part.total_predual(omega)
        assert np.abs(out.density - _symmetrized_sum(part, omega)).max() <= 1e-14
        assert out.weight == pytest.approx(omega.weight, abs=1e-14)
    # diagonal maps on a diagonal state keep it held as its diagonal
    assert diagonal_part.total_predual(diagonal)._diagonal is not None
    assert mixed.total_predual(diagonal)._diagonal is None


def test_total_predual_checks_the_state_dimension():
    with pytest.raises(DimensionMismatch, match="state dimension 3 vs partition input 2"):
        z_partition().total_predual(StateFunctional.maximally_mixed(3))
