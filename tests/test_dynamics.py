import math

import numpy as np
import pytest

from qde import defaults
from qde.capacity import proportional_code_channel
from qde.classical import FiniteSpace, FunctionPartition, permutation_entropy_sequence
from qde.dynamics import (
    admissibility_check,
    an_sequence,
    conditional_information,
    convexity_probe,
    information,
    information_via_direct_sum,
    invariance_check,
    refinement,
)
from qde.errors import DimensionMismatch, ResourceCapExceeded, ValidationFailure
from qde.partitions import (
    Automorphism,
    KrausMap,
    Partition,
    compose,
    pinching_invariant_partition,
    predual_apply,
    tensor_partition,
    vn_partition,
)
from qde.properties import (
    random_invariant_state,
    random_partition,
    random_state,
    random_unitary,
)
from qde.states import StateFunctional, mix, product_state

from conftest import LN2, MINUS, P0, P1, PLUS, SX
from oracles import (
    brute_force_an,
    classical_part,
    dag,
    info_from_branches,
    on_site,
    predual,
    shannon,
    site_shift,
    word_branches,
)


def z_partition():
    return vn_partition([P0, P1])


def x_partition():
    return vn_partition([PLUS, MINUS])


# --- information -----------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_information_commuting_reduces_to_shannon(p):
    phi = StateFunctional.diagonal([p, 1 - p])
    rep = information(phi, z_partition())
    assert rep.total_H == pytest.approx(shannon([p, 1 - p]), abs=1e-12)
    assert rep.quantum_Hq == pytest.approx(0.0, abs=1e-12)
    assert rep.weights[0] == pytest.approx(p)
    # brute force through explicit densities
    branches = [P0 @ phi.density @ P0, P1 @ phi.density @ P1]
    assert rep.total_H == pytest.approx(info_from_branches(branches), abs=1e-12)


def test_information_uniform_is_ln2():
    rep = information(StateFunctional.maximally_mixed(2), z_partition())
    assert rep.total_H == pytest.approx(LN2)


def test_information_proportional_code():
    weights = [0.2, 0.3, 0.5]
    zeta = proportional_code_channel(weights, 2)
    rep = information(StateFunctional.from_density(PLUS), zeta)
    assert rep.total_H == pytest.approx(0.0, abs=1e-12)
    assert rep.classical_Hc == pytest.approx(shannon(weights))
    assert rep.quantum_Hq == pytest.approx(-shannon(weights))


def test_information_composed_z_then_x():
    # branch functionals are (1/4) x-basis pure states
    phi = StateFunctional.maximally_mixed(2)
    rep = information(phi, compose(z_partition(), x_partition()))
    assert rep.total_H == pytest.approx(LN2, abs=1e-12)
    assert rep.classical_Hc == pytest.approx(2 * LN2, abs=1e-12)
    assert rep.quantum_Hq == pytest.approx(-LN2, abs=1e-12)
    branches = [
        pj @ (0.5 * pi @ np.eye(2) @ pi) @ pj
        for pi in (P0, P1)
        for pj in (PLUS, MINUS)
    ]
    assert rep.total_H == pytest.approx(info_from_branches(branches), abs=1e-12)


def test_information_requires_normalized():
    with pytest.raises(ValidationFailure):
        information(StateFunctional.diagonal([0.5, 0.1]), z_partition())


def test_information_split_identity(rng):
    for _ in range(20):
        phi = random_invariant_state(rng, np.eye(2))
        zeta = random_partition(rng, 2, 2, outcomes=3)
        assert information(phi, zeta).split_residual <= 1e-10


def test_information_stable_under_relabeling(rng):
    phi = random_invariant_state(rng, np.eye(2))
    zeta = random_partition(rng, 2, 2, outcomes=3)
    shuffled = Partition(tuple(zeta.maps[i] for i in (2, 0, 1)))
    a = information(phi, zeta)
    b = information(phi, shuffled)
    assert a.total_H == pytest.approx(b.total_H, abs=1e-12)
    assert a.weights[0] == b.weights[0]


# --- direct-sum representation ---------------------------------------------


def test_direct_sum_matches_information(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        phi = random_invariant_state(rng, np.eye(d))
        zeta = random_partition(rng, d, d, outcomes=int(rng.integers(2, 4)))
        a = information(phi, zeta).total_H
        b = information_via_direct_sum(phi, zeta)
        assert a == pytest.approx(b, abs=1e-8)


def test_direct_sum_trivial_and_proportional():
    phi = StateFunctional.from_density(PLUS)
    assert information_via_direct_sum(phi, Partition.trivial(2)) == pytest.approx(0.0, abs=1e-12)
    zeta = proportional_code_channel([0.4, 0.6], 2)
    assert information_via_direct_sum(phi, zeta) == pytest.approx(0.0, abs=1e-12)


# --- conditional information ------------------------------------------------


def test_conditional_with_trivial_is_information():
    phi = StateFunctional.diagonal([0.7, 0.3])
    zeta = z_partition()
    cond = conditional_information(phi, zeta, Partition.trivial(2))
    assert cond == pytest.approx(information(phi, zeta).total_H, abs=1e-12)


def test_conditional_projective_self_is_zero():
    phi = StateFunctional.from_density(PLUS)
    zeta = z_partition()
    assert conditional_information(phi, zeta, zeta) == pytest.approx(0.0, abs=1e-12)


def test_conditional_z_given_x_uniform():
    phi = StateFunctional.maximally_mixed(2)
    assert conditional_information(phi, z_partition(), x_partition()) == pytest.approx(
        0.0, abs=1e-12
    )


def test_conditional_nonnegative_random(rng):
    for _ in range(30):
        phi = random_invariant_state(rng, np.eye(2))
        zeta = random_partition(rng, 2, 2, outcomes=2)
        eta = random_partition(rng, 2, 2, outcomes=2)
        assert conditional_information(phi, zeta, eta) >= -1e-8


# --- refinement --------------------------------------------------------------


def test_refinement_depth_one_is_transport():
    theta = Automorphism(SX)
    zeta = z_partition()
    ref = refinement(theta, zeta, 1)
    # theta^{-1}(zeta) swaps the projectors
    assert np.allclose(ref.maps[0].kraus[0], P1)
    assert np.allclose(ref.maps[1].kraus[0], P0)
    assert ref.labels == ((0,), (1,))


def test_refinement_identity_projective_diagonal_words():
    ref = refinement(Automorphism.identity(2), z_partition(), 2)
    phi = StateFunctional.maximally_mixed(2)
    weights = {m.label: predual_apply(m, phi).weight for m in ref.maps}
    assert weights[(0, 0)] == pytest.approx(0.5)
    assert weights[(1, 1)] == pytest.approx(0.5)
    assert weights[(0, 1)] == pytest.approx(0.0, abs=1e-14)
    assert weights[(1, 0)] == pytest.approx(0.0, abs=1e-14)


def test_refinement_word_weights_sigma_x():
    # brute force over the 4 words: sigma_x keeps the computational basis, so
    # only words with matching flipped letters carry weight
    ref = refinement(Automorphism(SX), z_partition(), 2)
    phi = StateFunctional.maximally_mixed(2)
    weights = {m.label: predual_apply(m, phi).weight for m in ref.maps}
    brute = {}
    for i1 in (0, 1):
        for i2 in (0, 1):
            first = (P1, P0)[i1]  # sigma_x P_i sigma_x
            second = (P0, P1)[i2]  # sigma_x^2 = identity
            dens = second @ (first @ phi.density @ first) @ second
            brute[(i1, i2)] = float(np.real(np.trace(dens)))
    assert weights == pytest.approx(brute)
    assert sorted(weights.values()) == pytest.approx([0.0, 0.0, 0.5, 0.5])


def test_refinement_validates_each_word_map_once(monkeypatch):
    from qde.partitions import KrausMap

    zeta, theta = z_partition(), Automorphism(SX)
    validate = KrausMap.__post_init__
    runs = []

    def counting(self):
        runs.append(self.label)
        validate(self)

    monkeypatch.setattr(KrausMap, "__post_init__", counting)
    ref = refinement(theta, zeta, 4)
    assert len(ref.maps) == 16
    # 2 maps for each of the 4 conjugated factors and 4 + 8 + 16 composites;
    # relabelling the words rebuilds none of them
    assert len(runs) == 36


def test_refinement_branch_cap():
    with pytest.raises(ResourceCapExceeded):
        refinement(Automorphism.identity(2), z_partition(), 13)


# --- the a_n sequence ---------------------------------------------------------


def test_an_identity_projective_all_zero():
    phi = StateFunctional.diagonal([0.7, 0.3])
    seq = an_sequence(phi, Automorphism.identity(2), z_partition(), depth=3)
    assert all(abs(v) <= 1e-12 for v in seq.values)
    assert seq.monotonicity_residual <= 1e-12


def test_an_sigma_x_conjugation_matches_brute_force():
    phi = StateFunctional.maximally_mixed(2)
    seq = an_sequence(phi, Automorphism(SX), z_partition(), depth=4)
    expected = brute_force_an(phi.density, SX, [[P0], [P1]], 4)
    assert list(seq.values) == pytest.approx(expected, abs=1e-10)
    assert seq.monotonicity_residual <= 1e-10
    assert all(v <= seq.information_bound + 1e-10 for v in seq.values)


def test_an_random_system_matches_brute_force(rng):
    u = random_unitary(rng, 2)
    phi = random_invariant_state(rng, u)
    zeta = random_partition(rng, 2, 2, outcomes=2, kraus_per_map=2)
    seq = an_sequence(phi, Automorphism(u), zeta, depth=3)
    expected = brute_force_an(phi.density, u, [m.kraus for m in zeta.maps], 3)
    assert list(seq.values) == pytest.approx(expected, abs=1e-9)


def test_an_warns_on_noninvariant_state():
    phi = StateFunctional.diagonal([0.9, 0.1])
    with pytest.warns(UserWarning, match="not invariant"):
        an_sequence(phi, Automorphism(SX), z_partition(), depth=2)


def test_an_branch_cap():
    with pytest.raises(ResourceCapExceeded):
        an_sequence(
            StateFunctional.maximally_mixed(2),
            Automorphism.identity(2),
            z_partition(),
            depth=12,
        )


def test_a_one_outcome_partition_has_the_two_outcome_depth_limit():
    phi, identity = StateFunctional.maximally_mixed(2), Automorphism.identity(2)
    seq = an_sequence(phi, identity, Partition.trivial(2), depth=11)
    assert all(abs(v) <= 1e-12 for v in seq.values)
    for zeta in (Partition.trivial(2), z_partition()):
        with pytest.raises(ResourceCapExceeded):
            an_sequence(phi, identity, zeta, depth=12)
        with pytest.raises(ResourceCapExceeded):
            refinement(identity, zeta, 13)


def test_markov_diagonal_embedding_matches_conditional_entropy():
    # two-state chain embedded on the diagonal algebra of windows
    from qde.classical import SymbolicShift, embed_diagonal

    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    shift = SymbolicShift(P)
    expected = -sum(
        shift.stationary[i] * P[i, j] * math.log(P[i, j]) for i in range(2) for j in range(2)
    )
    for n in (1, 2, 3):
        space = shift.word_space(n + 1)
        present = shift.coordinate_indicator(n + 1, [n])
        past = shift.coordinate_indicator(n + 1, range(n))
        state, q_present = embed_diagonal(space, present)
        _, q_past = embed_diagonal(space, past)
        a_n = conditional_information(state, q_present, q_past)
        assert a_n == pytest.approx(expected, abs=1e-10)


# --- admissibility, invariance, convexity ------------------------------------


def test_admissibility_vn():
    ok, seq = admissibility_check(StateFunctional.diagonal([0.6, 0.4]), z_partition(), depth=2)
    assert ok
    assert seq.values[0] == pytest.approx(0.0, abs=1e-12)


def test_admissibility_pinching():
    phi = StateFunctional.diagonal([0.8, 0.2])
    pin = pinching_invariant_partition([P0, P1], phi)
    ok, seq = admissibility_check(phi, pin, depth=3)
    assert ok
    assert seq.h_estimate <= 1e-6


def test_admissibility_proportional():
    ok, _ = admissibility_check(
        StateFunctional.from_density(PLUS), proportional_code_channel([0.5, 0.5], 2), depth=2
    )
    assert ok


def test_invariance_check_values():
    phi = StateFunctional.diagonal([0.9, 0.1])
    pin = pinching_invariant_partition([P0, P1], phi)
    assert invariance_check(phi, pin) <= 1e-9
    plus = StateFunctional.from_density(PLUS)
    residual = invariance_check(plus, z_partition())
    # pinched density is I/2: ||I/2 - |+><+||_F = 1/sqrt(2)
    assert residual == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert invariance_check(StateFunctional.maximally_mixed(2), z_partition()) <= 1e-12


def test_convexity_probe_equal_endpoints():
    phi = StateFunctional.diagonal([0.6, 0.4])
    rep = convexity_probe(phi, phi, z_partition(), Automorphism.identity(2), depth=2)
    assert rep.max_above_chord <= 1e-12


def test_convexity_probe_diagonal_pinching():
    phi0 = StateFunctional.diagonal([0.6, 0.4])
    phi1 = StateFunctional.diagonal([0.2, 0.8])
    zeta = z_partition()
    rep = convexity_probe(phi0, phi1, zeta, Automorphism.identity(2), depth=2)
    assert rep.values == pytest.approx([0.0] * 5, abs=1e-12)
    assert rep.max_above_chord <= 1e-12


def test_convexity_probe_rejects_noninvariant():
    phi0 = StateFunctional.diagonal([0.6, 0.4])
    phi1 = StateFunctional.from_density(PLUS)
    with pytest.raises(ValidationFailure):
        convexity_probe(phi0, phi1, z_partition(), Automorphism(SX), depth=2)


def test_an_automorphism_of_the_wrong_dimension_fails_closed():
    phi = StateFunctional.maximally_mixed(2)
    theta = Automorphism.identity(3)
    with pytest.raises(DimensionMismatch, match="automorphism dimension 3"):
        an_sequence(phi, theta, z_partition(), depth=2)
    # before the invariance check, which would multiply a 3x3 by a 2x2 matrix
    with pytest.raises(DimensionMismatch, match="automorphism dimension 3"):
        convexity_probe(phi, phi, z_partition(), theta, depth=2)


def test_convexity_probe_endpoints_of_the_wrong_dimension_fail_closed():
    phi = StateFunctional.maximally_mixed(3)
    # before the invariance check, which would multiply a 2x2 by a 3x3 matrix
    with pytest.raises(DimensionMismatch, match="first endpoint dimension 3 vs partition input 2"):
        convexity_probe(phi, phi, z_partition(), Automorphism.identity(2), depth=2)
    with pytest.raises(DimensionMismatch, match="second endpoint dimension 3"):
        convexity_probe(
            StateFunctional.maximally_mixed(2), phi, z_partition(), Automorphism.identity(2)
        )


# --- product additivity -------------------------------------------------------


def test_information_additive_under_products(rng):
    for _ in range(5):
        phi1 = random_invariant_state(rng, np.eye(2))
        phi2 = random_invariant_state(rng, np.eye(2))
        z1 = random_partition(rng, 2, 2, outcomes=2)
        z2 = random_partition(rng, 2, 2, outcomes=2)
        lhs = information(product_state(phi1, phi2), tensor_partition(z1, z2)).total_H
        rhs = information(phi1, z1).total_H + information(phi2, z2).total_H
        assert lhs == pytest.approx(rhs, abs=1e-8)


# --- rank-1 joins -------------------------------------------------------------


def _rank_one_projective(rng, d):
    """The projective partition onto a random orthonormal basis."""
    basis = random_unitary(rng, d)
    return vn_partition([np.outer(basis[:, j], basis[:, j].conj()) for j in range(d)])


def _transported(u, zeta, k):
    """The Kraus families of theta^{-k}(zeta) for theta = conjugation by u."""
    v = np.linalg.matrix_power(dag(u), k)
    return [[v @ kraus @ dag(v) for kraus in m.kraus] for m in zeta.maps]


def test_rank_one_join_information_is_the_entropy_of_the_last_marginal(rng):
    """If the last factor of a join has only rank-1 Kraus elements, each
    branch is a multiple of one of that factor's orthogonal output
    projectors, so the join's information is the Shannon entropy of the last
    factor's outcome marginal.  The marginal comes from explicit word
    enumeration."""
    for d in (2, 3, 4):
        for n in (1, 2, 3, 4):
            zeta = _rank_one_projective(rng, d)
            u = random_unitary(rng, d)
            phi = random_state(rng, d)
            past = refinement(Automorphism(u), zeta, n)
            past_steps = [_transported(u, zeta, k) for k in range(1, n + 1)]
            first = [list(m.kraus) for m in zeta.maps]
            for join, steps in ((past, past_steps), (compose(zeta, past), [first] + past_steps)):
                before_last = sum(word_branches(phi.density, steps[:-1]))
                marginal = [np.trace(predual(fam, before_last)).real for fam in steps[-1]]
                assert abs(information(phi, join).total_H - shannon(marginal)) <= 1e-12, (d, n)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rank_one_projective_partitions_generate_no_entropy(rng, d):
    """a_n = 0 at every depth: both informations in a_n are the entropy of
    the same last marginal.  The invariant state is not the tracial one, so
    the state after zeta differs from phi."""
    u = random_unitary(rng, d)
    phi = random_invariant_state(rng, u)
    seq = an_sequence(phi, Automorphism(u), _rank_one_projective(rng, d), 5)
    assert seq.depth == 5
    assert all(abs(v) <= 1e-12 for v in seq.values)


# --- dead words ---------------------------------------------------------------


def _recording_compose(monkeypatch):
    """Replaces the `compose` that qde.dynamics calls by one that records the
    outcome counts of its two arguments and the dead words of its result."""
    import qde.dynamics as dynamics

    calls = []

    def recording(zeta, eta):
        joint = compose(zeta, eta)
        calls.append((zeta.size, eta.size, sum(not np.any(m.kraus) for m in joint.maps)))
        return joint

    monkeypatch.setattr(dynamics, "compose", recording)
    return calls


# the deepest a_n of a two-outcome partition: 2**(N + 1) <= BRANCH_CAP
CAP_DEPTH = defaults.BRANCH_CAP.bit_length() - 2


@pytest.mark.parametrize("depth", [7, CAP_DEPTH])
@pytest.mark.parametrize("d", [5, 8])
def test_a_permutation_matches_the_classical_layer_on_at_most_d_words(rng, monkeypatch, d, depth):
    """A permutation moves a subset-projector partition to subset projectors,
    so a join has at most d live words, one per point; the others are dead.
    The values must match the classical sequence of the same permutation and
    indicators, and every join that a_n extends, which compose receives,
    must hold at most d words."""
    perm = rng.permutation(d)
    u = np.zeros((d, d), dtype=complex)
    u[perm, np.arange(d)] = 1.0
    mu = rng.random(d) + 0.05
    for _ in range(d):  # constant on the cycles of perm, so the state is invariant
        mu = np.maximum(mu, mu[perm])
    mu /= mu.sum()
    subset = np.zeros(d)
    subset[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] = 1.0
    expected = permutation_entropy_sequence(
        FiniteSpace(mu), perm, FunctionPartition(np.array([subset, 1.0 - subset])), depth
    )
    zeta = vn_partition([np.diag(subset), np.diag(1.0 - subset)])
    calls = _recording_compose(monkeypatch)
    seq = an_sequence(StateFunctional.diagonal(mu), Automorphism(u), zeta, depth)
    assert list(seq.values) == pytest.approx(list(expected.values), abs=1e-10)
    # the past join, a_n's conditional and the transported pair at each level past 1
    assert len(calls) == 4 * depth - 2
    assert max(max(first, second) for first, second, _ in calls) <= d
    assert any(dead for *_, dead in calls)  # compose itself keeps the dead words


NILPOTENT = [[np.array([[0, 1], [0, 0]], dtype=complex)], [np.array([[0, 0], [1, 0]], dtype=complex)]]


@pytest.mark.parametrize(
    "unitary, rho",
    [(np.eye(2), np.diag([0.7, 0.3])), (SX, np.array([[0.5, 0.2], [0.2, 0.5]]))],
    ids=["identity", "sigma_x"],
)
def test_dead_words_of_a_dense_family_are_dropped_from_a_n_and_kept_by_refinement(
    monkeypatch, unitary, rho
):
    """{|0><1|}, {|1><0|}: a word with two equal letters in a row, after the
    transport, has the Kraus product 0, so two of the 2**n words are live."""
    zeta = Partition(tuple(KrausMap(tuple(fam)) for fam in NILPOTENT))
    theta, phi = Automorphism(unitary), StateFunctional.from_density(rho.astype(complex))
    for n in range(1, 7):
        ref = refinement(theta, zeta, n)
        assert len(ref.maps) == 2**n
        for m in ref.maps:
            product = np.eye(2)
            for k, letter in enumerate(m.label, start=1):
                v = np.linalg.matrix_power(dag(unitary), k)
                product = v @ NILPOTENT[letter][0] @ dag(v) @ product
            dead = not product.any()
            assert dead == (not np.any(m.kraus))
            if dead:
                assert predual_apply(m, phi).weight == 0.0
        assert sum(bool(np.any(m.kraus)) for m in ref.maps) == 2
    calls = _recording_compose(monkeypatch)
    seq = an_sequence(phi, theta, zeta, depth=6)
    assert list(seq.values) == pytest.approx(brute_force_an(rho, unitary, NILPOTENT, 6), abs=1e-10)
    assert len(calls) == 4 * 6 - 2
    assert max(max(first, second) for first, second, _ in calls) == 2
    assert any(dead for *_, dead in calls)


# --- lattice shift ------------------------------------------------------------


def _whitened_families(rng, s, counts):
    """Random Kraus families on one site, `counts[i]` elements for outcome i,
    right-normalized so that their unit images sum to the identity."""
    raw = [[rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)) for _ in range(c)]
           for c in counts]
    w, v = np.linalg.eigh(sum(dag(k) @ k for fam in raw for k in fam))
    whiten = (v / np.sqrt(w)) @ dag(v)
    return [[k @ whiten for k in fam] for fam in raw]


@pytest.mark.parametrize(
    "s, sites, depth, counts", [(2, 3, 6, (1, 2)), (3, 2, 5, (2, 1, 3))], ids=["s2_L3", "s3_L2"]
)
def test_a_lattice_shift_repeats_the_one_site_sequence(rng, s, sites, depth, counts):
    """`sites` sites of dimension s in the product state rho^{(x)L}, the cyclic
    site shift, and a partition that measures site 1 only: the past of depth n
    measures site 1 again floor(n/L) times and the other sites, which the
    product state keeps independent, so a_n = c_{floor(n/L)}.  Here c_0 is the
    one-site information H_rho(zeta_1) and c_m the m-th value of the one-site
    sequence under the identity."""
    rho = random_state(rng, s)
    families = _whitened_families(rng, s, counts)
    zeta_1 = Partition(tuple(KrausMap(tuple(fam)) for fam in families))
    zeta = Partition(
        tuple(KrausMap(tuple(on_site(k, 0, sites) for k in fam)) for fam in families)
    )
    phi = rho.density
    for _ in range(sites - 1):
        phi = np.kron(phi, rho.density)
    phi = StateFunctional.from_density(phi)
    base = information(rho, zeta_1)
    identity = an_sequence(rho, Automorphism.identity(s), zeta_1, depth // sites)
    c = [base.total_H, *identity.values]
    # a genuinely quantum instance whose one-site sequence moves
    assert abs(base.classical_Hc) > 0.1 and abs(base.quantum_Hq) > 0.1
    assert c[0] - c[1] > 1e-3
    values = an_sequence(phi, Automorphism(site_shift(s, sites)), zeta, depth).values
    assert len(values) == depth
    for n, a_n in enumerate(values, start=1):
        assert abs(a_n - c[n // sites]) <= 1e-10, n
        if n < sites:  # the quantum Bernoulli shift's value
            assert abs(a_n - base.total_H) <= 1e-10, n
