import math

import numpy as np
import pytest

from qde import defaults
from qde.classical import (
    FiniteSpace,
    FunctionPartition,
    SymbolicShift,
    classical_conditional,
    classical_information,
    compose_function_partitions,
    embed_diagonal,
    markov_entropy_sequence,
    partition_comparison_bound,
    permutation_entropy_sequence,
    permutation_matrix,
    stationary_distribution,
    transport_partition,
)
from qde.dynamics import conditional_information, information, invariance_check
from qde.errors import DimensionMismatch, ResourceCapExceeded, ValidationFailure
from qde.properties import random_function_partition

from oracles import shannon


def indicator2(size=2):
    return FunctionPartition.indicator([[0], [1]], size)


# --- classical information ----------------------------------------------------


def test_information_indicator_uniform():
    space = FiniteSpace.uniform(2)
    assert classical_information(space, indicator2()) == pytest.approx(math.log(2))


def test_information_constant_functions():
    space = FiniteSpace.uniform(2)
    zeta = FunctionPartition(np.full((2, 2), 1 / math.sqrt(2)))
    assert classical_information(space, zeta) == pytest.approx(0.0, abs=1e-12)


def test_information_biased_indicator():
    space = FiniteSpace(np.array([0.9, 0.1]))
    assert classical_information(space, indicator2()) == pytest.approx(
        shannon([0.9, 0.1]), abs=1e-12
    )
    assert classical_information(space, indicator2()) == pytest.approx(0.325083, abs=1e-6)


# --- conditional --------------------------------------------------------------


def test_conditional_with_trivial():
    space = FiniteSpace(np.array([0.3, 0.2, 0.5]))
    zeta = random_function_partition(np.random.default_rng(0), 3, cells=2)
    trivial = FunctionPartition(np.ones((1, 3)))
    assert classical_conditional(space, zeta, trivial) == pytest.approx(
        classical_information(space, zeta), abs=1e-12
    )


def test_conditional_self_indicator_zero():
    space = FiniteSpace(np.array([0.25, 0.75]))
    zeta = indicator2()
    assert classical_conditional(space, zeta, zeta) == pytest.approx(0.0, abs=1e-12)


def test_conditional_matches_conditional_expectation_form(rng):
    # oracle: for indicator eta, H(zeta|eta) =
    #   -sum_i mu(E[f_i] ln E[f_i]) + sum_i mu(f_i ln f_i)   with f_i = zeta_i^2
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    space = FiniteSpace(mu)
    cells = [[0, 1], [2, 3]]
    eta = FunctionPartition.indicator(cells, 4)
    for _ in range(20):
        zeta = random_function_partition(rng, 4, cells=3)
        f = zeta.values**2
        expected = 0.0
        for fi in f:
            cond = np.zeros(4)
            for cell in cells:
                cell = list(cell)
                cond[cell] = float(mu[cell] @ fi[cell]) / float(mu[cell].sum())
            mask = cond > 1e-14
            expected -= float(mu[mask] @ (cond[mask] * np.log(cond[mask])))
            mask = fi > 1e-14
            expected += float(mu[mask] @ (fi[mask] * np.log(fi[mask])))
        got = classical_conditional(space, zeta, eta)
        assert got == pytest.approx(expected, abs=1e-8)


def test_conditional_matches_quantum_embedding(rng):
    for _ in range(20):
        mu = rng.random(4) + 0.1
        space = FiniteSpace(mu / mu.sum())
        zeta = random_function_partition(rng, 4, cells=2)
        eta = random_function_partition(rng, 4, cells=2)
        state, q_zeta = embed_diagonal(space, zeta)
        _, q_eta = embed_diagonal(space, eta)
        assert classical_conditional(space, zeta, eta) == pytest.approx(
            conditional_information(state, q_zeta, q_eta), abs=1e-8
        )


# --- permutation dynamics -------------------------------------------------------


def test_permutation_identity_indicator_zero():
    space = FiniteSpace.uniform(4)
    zeta = FunctionPartition.indicator([[0], [1], [2], [3]], 4)
    seq = permutation_entropy_sequence(space, np.arange(4), zeta, depth=3)
    assert list(seq.values) == pytest.approx([0.0] * 3, abs=1e-12)


def test_permutation_cyclic_shift_hits_zero():
    # binary coordinate of a 4-cycle: brute-force joint distributions give
    # a_1 = ln 2 and exhaustion from n = 2 on
    space = FiniteSpace.uniform(4)
    zeta = FunctionPartition.indicator([[0, 1], [2, 3]], 4)
    perm = np.array([1, 2, 3, 0])
    seq = permutation_entropy_sequence(space, perm, zeta, depth=4)
    assert seq.values[0] == pytest.approx(math.log(2), abs=1e-12)
    assert all(abs(v) <= 1e-12 for v in seq.values[1:])
    assert seq.monotonicity_residual <= 1e-12


def test_permutation_swap_indicator_exhausts_at_period():
    # swap of the middle points against the {01}/{23} split: one step of past
    # is informative, two cover the period
    space = FiniteSpace.uniform(4)
    perm = np.array([0, 2, 1, 3])
    zeta = FunctionPartition.indicator([[0, 1], [2, 3]], 4)
    seq = permutation_entropy_sequence(space, perm, zeta, depth=4)
    assert seq.values[0] == pytest.approx(math.log(2), abs=1e-12)
    assert all(abs(v) <= 1e-12 for v in seq.values[1:])


def test_permutation_swap_smooth_partition_decays(rng):
    # non-indicator partitions keep refining: values stay positive but fall
    # monotonically toward the zero limit of periodic dynamics
    space = FiniteSpace.uniform(2)
    perm = np.array([1, 0])
    for _ in range(5):
        zeta = random_function_partition(rng, 2, cells=2)
        seq = permutation_entropy_sequence(space, perm, zeta, depth=6)
        assert seq.monotonicity_residual <= 1e-10
        assert all(v >= -1e-12 for v in seq.values)
        assert seq.values[-1] < seq.values[0]


def test_permutation_rejects_nonpreserving():
    space = FiniteSpace(np.array([0.7, 0.2, 0.1]))
    with pytest.raises(ValidationFailure):
        permutation_entropy_sequence(space, np.array([1, 0, 2]), indicator2(3), depth=2)


def test_transport_equality(rng):
    # H(theta(zeta) | theta(beta)) = H(zeta | beta) for measure-preserving theta
    space = FiniteSpace.uniform(5)
    for _ in range(10):
        perm = rng.permutation(5)
        zeta = random_function_partition(rng, 5, cells=2)
        beta = random_function_partition(rng, 5, cells=3)
        lhs = classical_conditional(
            space, transport_partition(zeta, perm), transport_partition(beta, perm)
        )
        assert lhs == pytest.approx(classical_conditional(space, zeta, beta), abs=1e-9)


# --- symbolic dynamics ------------------------------------------------------------


def test_stationary_distribution():
    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    pi = stationary_distribution(P)
    assert pi == pytest.approx([0.5, 0.5])


def test_cylinder_measures_sum_to_one():
    shift = SymbolicShift(np.array([[0.7, 0.3], [0.2, 0.8]]))
    for length in (1, 2, 5, 8):
        assert shift.cylinder_measures(length).sum() == pytest.approx(1.0, abs=1e-10)


def test_markov_sequence_bernoulli():
    shift = SymbolicShift.bernoulli([0.5, 0.5])
    seq = markov_entropy_sequence(shift, depth=5)
    assert list(seq.values) == pytest.approx([math.log(2)] * 5, abs=1e-12)


def test_markov_sequence_closed_form():
    P = np.array([[0.9, 0.1], [0.1, 0.9]])
    shift = SymbolicShift(P)
    expected = -sum(
        0.5 * P[i, j] * math.log(P[i, j]) for i in range(2) for j in range(2)
    )
    seq = markov_entropy_sequence(shift, depth=5)
    assert list(seq.values) == pytest.approx([expected] * 5, abs=1e-10)
    assert seq.monotonicity_residual <= 1e-10


def test_markov_sequence_deterministic_shift():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    shift = SymbolicShift(P, stationary=[0.5, 0.5])
    seq = markov_entropy_sequence(shift, depth=4)
    assert list(seq.values) == pytest.approx([0.0] * 4, abs=1e-12)


def test_markov_window_cap():
    shift = SymbolicShift.bernoulli([0.5, 0.5])
    with pytest.raises(ResourceCapExceeded):
        shift.cylinder_measures(14)


def test_markov_rejects_nonstochastic():
    with pytest.raises(ValidationFailure):
        SymbolicShift(np.array([[0.5, 0.49], [0.1, 0.9]]))


# --- diagonal embedding -------------------------------------------------------------


def test_embedding_uniform_indicator():
    space = FiniteSpace.uniform(2)
    state, part = embed_diagonal(space, indicator2())
    assert information(state, part).total_H == pytest.approx(math.log(2))
    assert invariance_check(state, part) <= 1e-12


def test_embedding_constant_functions():
    space = FiniteSpace.uniform(2)
    zeta = FunctionPartition(np.full((2, 2), 1 / math.sqrt(2)))
    state, part = embed_diagonal(space, zeta)
    assert information(state, part).total_H == pytest.approx(0.0, abs=1e-12)


def test_embedding_random_agreement(rng):
    worst = 0.0
    for _ in range(100):
        mu = rng.random(4) + 0.05
        space = FiniteSpace(mu / mu.sum())
        zeta = random_function_partition(rng, 4, cells=3)
        state, part = embed_diagonal(space, zeta)
        gap = abs(classical_information(space, zeta) - information(state, part).total_H)
        worst = max(worst, gap)
        assert invariance_check(state, part) <= 1e-9
    assert worst <= 1e-8


# --- comparison bound ----------------------------------------------------------------


def test_comparison_bound_self():
    space = FiniteSpace.uniform(4)
    zeta = FunctionPartition.indicator([[0, 1], [2, 3]], 4)
    report = partition_comparison_bound(space, np.array([1, 2, 3, 0]), zeta, zeta, 3)
    assert report.satisfied


def test_comparison_bound_trivial_reference(rng):
    space = FiniteSpace.uniform(4)
    trivial = FunctionPartition(np.ones((1, 4)))
    for _ in range(10):
        zeta = random_function_partition(rng, 4, cells=2)
        report = partition_comparison_bound(space, rng.permutation(4), zeta, trivial, 3)
        # reduces to the subadditivity chain H(zeta_n) <= n H(zeta)
        assert report.satisfied
        assert report.bound == pytest.approx(
            3 * classical_information(space, zeta), abs=1e-9
        )


def test_comparison_bound_random(rng):
    space = FiniteSpace.uniform(4)
    for _ in range(50):
        zeta = random_function_partition(rng, 4, cells=2)
        eta = random_function_partition(rng, 4, cells=2)
        report = partition_comparison_bound(space, rng.permutation(4), zeta, eta, 4)
        assert report.residual <= 1e-8


# --- refinement monotone for composition ------------------------------------------


def test_composition_refines(rng):
    space = FiniteSpace.uniform(4)
    for _ in range(20):
        zeta = random_function_partition(rng, 4, cells=2)
        eta = random_function_partition(rng, 4, cells=2)
        joint = classical_information(space, compose_function_partitions(zeta, eta))
        assert joint >= classical_information(space, zeta) - 1e-8


def test_permutation_matrix_and_validation():
    u = permutation_matrix([1, 2, 0])
    assert np.allclose(u @ np.array([1, 0, 0]), [0, 1, 0])
    with pytest.raises(ValidationFailure):
        FiniteSpace(np.array([0.5, 0.6]))
    with pytest.raises(ValidationFailure):
        FunctionPartition(np.array([[1.0, 0.5], [0.0, 0.5]]))


def test_non_finite_function_values_fail_closed():
    with pytest.raises(ValidationFailure, match="non-finite"):
        FunctionPartition([[math.nan, 1.0], [0.0, 0.0]])
    # the embedding's diagonal maps check finiteness themselves: a table that
    # skipped the constructor still fails there
    zeta = object.__new__(FunctionPartition)
    vars(zeta).update(values=np.array([[math.nan, 1.0], [0.0, 0.0]]), labels=(0, 1))
    with pytest.raises(ValidationFailure, match="non-finite"):
        embed_diagonal(FiniteSpace.uniform(2), zeta)


def test_nan_measure_fails_closed():
    # a NaN entry passes the negativity and sum checks, which compare against it
    with pytest.raises(ValidationFailure, match="^measure contains non-finite entries$"):
        FiniteSpace(np.array([0.5, math.nan, 0.5]))


def test_nan_transition_fails_closed():
    # before the stationary vector is solved for, where numpy's eig would fail
    with pytest.raises(ValidationFailure, match="^transition matrix contains non-finite entries$"):
        SymbolicShift(np.array([[0.5, math.nan], [0.2, 0.8]]))


def test_nan_stationary_vector_fails_closed():
    with pytest.raises(ValidationFailure, match="^stationary vector contains non-finite entries$"):
        SymbolicShift(np.array([[0.7, 0.3], [0.2, 0.8]]), stationary=[0.5, math.nan])
    with pytest.raises(DimensionMismatch, match="for 2 symbols"):  # not numpy's matmul error
        SymbolicShift(np.array([[0.7, 0.3], [0.2, 0.8]]), stationary=[0.5, 0.25, 0.25])
    # stationary (pi P = pi) but not a probability vector
    with pytest.raises(ValidationFailure, match="^stationary vector sums to 4, not 1$"):
        SymbolicShift(np.full((2, 2), 0.5), stationary=[2, 2])
    with pytest.raises(ValidationFailure, match="^stationary vector has negative entries$"):
        SymbolicShift(np.array([[0.9, 0.1], [0.1, 0.9]]), stationary=[-0.5, -0.5])


def test_sequences_reject_depth_below_one():
    shift = SymbolicShift(np.array([[0.8, 0.2], [0.3, 0.7]]))
    with pytest.raises(ValidationFailure):
        markov_entropy_sequence(shift, depth=0)
    with pytest.raises(ValidationFailure):
        permutation_entropy_sequence(FiniteSpace.uniform(2), np.array([1, 0]), indicator2(), depth=0)


# --- join caps ----------------------------------------------------------------------


def test_depth_above_the_branch_cap_is_refused_before_any_level():
    space = FiniteSpace.uniform(4)
    zeta = FunctionPartition.indicator([[0, 1], [2, 3]], 4)
    perm = np.array([1, 2, 3, 0])
    with pytest.raises(ResourceCapExceeded, match="level cap"):
        permutation_entropy_sequence(space, perm, zeta, defaults.BRANCH_CAP + 1)
    with pytest.raises(ResourceCapExceeded, match="level cap"):
        partition_comparison_bound(space, perm, zeta, zeta, defaults.BRANCH_CAP + 1)


def test_deep_indicator_bound_counts_live_cells():
    # 2**13 words, but indicator cells on 4 points leave at most 4 live joins
    space = FiniteSpace.uniform(4)
    zeta = FunctionPartition.indicator([[0, 1], [2, 3]], 4)
    eta = FunctionPartition.indicator([[0], [1, 2], [3]], 4)
    report = partition_comparison_bound(space, np.array([1, 2, 3, 0]), zeta, eta, 13)
    assert report.satisfied
    assert report.joint_information == pytest.approx(math.log(4), abs=1e-12)


def test_smooth_partition_reaches_depth_12_and_is_refused_at_13(rng):
    # every join of a non-indicator partition stays live: 2**12 cells fill the cap
    space = FiniteSpace.uniform(4)
    zeta = random_function_partition(rng, 4, cells=2)
    perm = np.array([1, 2, 3, 0])
    seq = permutation_entropy_sequence(space, perm, zeta, 12)
    assert len(seq.values) == 12
    with pytest.raises(ResourceCapExceeded, match="depth 13"):
        permutation_entropy_sequence(space, perm, zeta, 13)


def test_conditional_rejects_partitions_on_another_space():
    zeta = FunctionPartition.indicator([[0], [1, 2]], 3)
    with pytest.raises(DimensionMismatch):
        classical_conditional(FiniteSpace.uniform(2), zeta, zeta)
    with pytest.raises(DimensionMismatch):
        classical_conditional(FiniteSpace.uniform(3), zeta, indicator2(2))
    with pytest.raises(DimensionMismatch):
        partition_comparison_bound(FiniteSpace.uniform(3), [1, 2, 0], zeta, indicator2(2), 2)


def test_markov_words_are_capped_by_count():
    # 5**12 words would take float arrays of 1.95 GB; refused before any is built
    shift = SymbolicShift.bernoulli([0.2] * 5)
    with pytest.raises(ResourceCapExceeded, match=r"\(244140625 word entries\)"):
        shift.cylinder_measures(12)
    with pytest.raises(ResourceCapExceeded, match=r"\(244140625 word entries\)"):
        shift.coordinate_indicator(11, [10])
    assert shift.cylinder_measures(5).sum() == pytest.approx(1.0, abs=1e-10)
    assert shift.coordinate_indicator(6, [5]).size == 5


@pytest.mark.parametrize("coords", [[3], [-1], [0, 4]])
def test_coordinate_indicator_rejects_coordinates_outside_the_window(coords):
    shift = SymbolicShift.bernoulli([0.5, 0.5])
    with pytest.raises(ValidationFailure, match="outside a window of length 3"):
        shift.coordinate_indicator(3, coords)


def test_one_symbol_chain_keeps_the_window_length_cap():
    shift = SymbolicShift(np.array([[1.0]]))
    assert shift.cylinder_measures(12).tolist() == [1.0]
    with pytest.raises(ResourceCapExceeded, match="window of length 13 "):
        shift.cylinder_measures(13)
    with pytest.raises(ResourceCapExceeded, match="window of length 13 "):
        shift.coordinate_indicator(13, [0])


# --- one kernel per job: cell entropies and Markov word measures ---------------


def _per_cell_entropy(mu, squares):
    """The cell entropy as one loop over cells, the reference for `_cells_entropy`."""
    h = 0.0
    for g2 in squares:
        w = float(mu @ g2)
        if w <= defaults.WEIGHT_FLOOR:
            continue
        h -= w * math.log(w)
        mask = g2 > 1e-300
        h += float(np.sum(mu[mask] * g2[mask] * np.log(g2[mask])))
    return h


def test_cells_entropy_matches_the_per_cell_loop(rng):
    from qde.classical import _cells_entropy

    for _ in range(40):
        cells, points = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        mu = rng.random(points)
        mu[rng.random(points) < 0.2] = 0.0
        mu = mu / mu.sum() if mu.sum() > 0 else np.full(points, 1.0 / points)
        squares = rng.random((cells, points))
        tiny = rng.random((cells, points))
        squares[tiny < 0.15] = 0.0
        squares[(tiny >= 0.15) & (tiny < 0.25)] = 1e-310  # subnormal: below the log cut
        squares[(tiny >= 0.25) & (tiny < 0.35)] = 1e-300  # at the cut: left out
        squares[rng.random(cells) < 0.3] = 0.0  # dead rows
        squares[0, 0] = 1e-300 * (1 + 1e-12)  # just above the cut: kept
        got = _cells_entropy(mu, squares)
        assert got == pytest.approx(_per_cell_entropy(mu, squares), abs=1e-12)


def test_cells_entropy_skips_rows_at_the_weight_floor():
    from qde.classical import _cells_entropy

    mu = np.array([0.5, 0.5])
    squares = np.array([[1.0, 1.0], [2e-14, 0.0], [1e-300, 1e-310]])
    assert _cells_entropy(mu, squares) == _per_cell_entropy(mu, squares) == 0.0


def _log_domain_cylinders(shift, length):
    """The cylinder measures as sums of logarithms, the reference for `cylinder_measures`."""
    with np.errstate(divide="ignore"):
        log_m, log_p = np.log(shift.stationary), np.log(shift.transition)
    for _ in range(length - 1):
        log_m = log_m[..., None] + log_p
    flat = log_m.reshape(-1)
    return np.where(np.isneginf(flat), 0.0, np.exp(flat))


@pytest.mark.parametrize("alphabet", [1, 2, 3, 4])
def test_cylinder_measures_match_the_log_domain_reference(rng, alphabet):
    p = rng.random((alphabet, alphabet)) + 0.05
    if alphabet > 1:
        p[0, -1] = 0.0  # a zero transition: every word through it has measure 0
    shift = SymbolicShift(p / p.sum(axis=1, keepdims=True))
    for length in range(1, 7):
        got, want = shift.cylinder_measures(length), _log_domain_cylinders(shift, length)
        assert got.shape == (alphabet**length,)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        if alphabet > 1 and length > 1:  # the words that open with the zero transition
            dead = got.reshape(alphabet, alphabet, -1)[0, -1]
            assert dead.tolist() == [0.0] * alphabet ** (length - 2)
    assert shift.cylinder_measures(1).flags.writeable


def test_markov_sequence_reads_each_window_once_as_the_next_past():
    # H(window n + 1) - H(window n), with the windows' entropies from the reference
    p = np.array([[0.5, 0.3, 0.2], [0.1, 0.0, 0.9], [0.4, 0.4, 0.2]])
    shift = SymbolicShift(p)
    window_h = [shannon(_log_domain_cylinders(shift, n)) for n in range(1, 7)]
    seq = markov_entropy_sequence(shift, depth=5)
    assert seq.information_bound == pytest.approx(window_h[0], abs=1e-13)
    want = [b - a for a, b in zip(window_h, window_h[1:])]
    assert list(seq.values) == pytest.approx(want, abs=1e-13)


def test_an_oversized_markov_window_is_refused_before_any_window_is_built():
    import tracemalloc

    shift = SymbolicShift.bernoulli([0.2] * 5)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded, match=r"^window of length 11 \(48828125 word"):
            markov_entropy_sequence(shift, depth=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_shannon_of_a_window_12_measure_keeps_one_array_beside_the_live_weights():
    import tracemalloc

    from qde.classical import _shannon

    p = np.array([[0.5, 0.3, 0.2], [0.1, 0.0, 0.9], [0.4, 0.4, 0.2]])
    measure = SymbolicShift(p).cylinder_measures(12)  # 3**12 words, most of measure 0
    live = measure[measure > defaults.WEIGHT_FLOOR]
    assert live.size < measure.size
    tracemalloc.start()
    try:
        got = _shannon(measure)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == float(-np.sum(live * np.log(live)))  # the product form, bit for bit
    # the live weights and their log terms; a separate product would make it 3x
    assert peak < 2.1 * live.nbytes
