"""Independent numpy oracles for the benchmark's correctness checks.

Nothing here imports qde: every check compares the library against a
separate computation.  The a_n oracle is the explicit word enumeration of
the repository's test oracles (tests/oracles.py, numpy only, loaded here
under its own name), the capacity oracle evaluates the Holevo quantity and
the best projective qubit measurement directly, and the Markov oracle is
the closed form of the entropy rate.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

FLOOR = 1e-14
TEST_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


def _load_test_oracles():
    if not TEST_ORACLES.is_file():
        print(f"qdebench: no {TEST_ORACLES}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    spec = importlib.util.spec_from_file_location("qde_test_oracles", TEST_ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_reference = _load_test_oracles()
shannon = _reference.shannon


def von_neumann(rho) -> float:
    return shannon(np.linalg.eigvalsh(rho))


def dynent_oracle(rho, unitary, families, depth):
    """(H, [a_1..a_depth]) by explicit enumeration of all measurement words.

    `families` holds one Kraus family per outcome; the dynamics conjugates
    Kraus elements by powers of the unitary.
    """
    h = _reference.info_from_branches([_reference.predual(fam, rho) for fam in families])
    return h, _reference.brute_force_an(rho, unitary, families, depth)


def holevo(branches) -> float:
    """chi = S(sum b_i) - sum_i p_i S(b_i / p_i) over unnormalized output branches."""
    chi = von_neumann(sum(branches))
    for b in branches:
        p = float(np.real(np.trace(b)))
        if p > FLOOR:
            chi -= p * von_neumann(b / p)
    return chi


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def best_projective_qubit_information(branches) -> float:
    """Largest classical mutual information of a projective qubit measurement.

    The measurement along the Bloch direction n has outcome probabilities
    tr(b_i (I +- n.sigma) / 2); a dense spherical grid followed by local
    refinement finds the maximum over n.
    """
    bloch = np.array([[np.real(np.trace(b @ s)) for s in _PAULI] for b in branches])
    weights = np.array([np.real(np.trace(b)) for b in branches])

    def info(directions):
        """Mutual information for each row of `directions` (any nonzero length)."""
        n = directions / np.linalg.norm(directions, axis=-1, keepdims=True)
        up = 0.5 * (weights[:, None] + bloch @ n.T)  # letters x directions
        joint = np.stack([up, weights[:, None] - up])  # outcome x letters x directions
        return _entropies(joint.sum(axis=1)) + shannon(weights) - _entropies(
            joint.reshape(-1, joint.shape[-1])
        )

    k = np.arange(4000) + 0.5
    polar = np.arccos(1.0 - k / 4000.0)  # upper hemisphere: n and -n are one measurement
    azimuth = np.pi * (1.0 + 5.0**0.5) * k
    grid = np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1
    )
    scores = info(grid)
    best = float(scores.max())
    for start in grid[np.argsort(scores)[-4:]]:
        res = scipy.optimize.minimize(
            lambda x: -float(info(x[None, :])[0]), start, method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000},
        )
        best = max(best, -float(res.fun))
    return best


def _entropies(columns) -> np.ndarray:
    """Shannon entropy of each column of a nonnegative array."""
    safe = np.where(columns > FLOOR, columns, 1.0)
    return -np.sum(np.where(columns > FLOOR, columns * np.log(safe), 0.0), axis=0)


def markov_rate(transition) -> float:
    """Entropy rate -sum_ij pi_i P_ij ln P_ij of a stationary Markov chain."""
    p = np.asarray(transition, dtype=float)
    w, v = np.linalg.eig(p.T)
    pi = np.abs(np.real(v[:, np.argmin(np.abs(w - 1.0))]))
    pi /= pi.sum()
    return float(-np.sum(pi[:, None] * p * np.log(p)))
