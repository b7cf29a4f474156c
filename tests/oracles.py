"""Independent brute-force oracles used by the tests.

Deliberately minimal numpy reimplementations: eigendecompose, sum scalar
series, enumerate measurement words explicitly.  Nothing here imports the
package, so agreement is a genuine cross-check.
"""

import itertools

import numpy as np


def dag(a):
    return a.conj().T


def shannon(ps):
    return float(-sum(p * np.log(p) for p in ps if p > 1e-14))


def rel_entropy(rho, sigma):
    """tr rho (ln rho - ln sigma); assumes supp(rho) within supp(sigma)."""
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    s = sum(x * np.log(x) for x in p if x > 1e-14)
    m = np.real(np.diag(dag(v) @ rho @ v))
    off = sum(m[j] for j in range(len(q)) if q[j] <= 1e-14)
    if off > 1e-10:
        return np.inf
    s -= sum(np.log(q[j]) * m[j] for j in range(len(q)) if q[j] > 1e-14)
    return float(s)


def info_from_branches(branches):
    """H = sum_i p_i S(b_i/p_i, sum_j b_j) over unnormalized branch densities."""
    total = sum(branches)
    h = 0.0
    for b in branches:
        p = float(np.real(np.trace(b)))
        if p <= 1e-14:
            continue
        h += p * rel_entropy(b / p, total)
    return h


def classical_part(branches):
    return shannon([float(np.real(np.trace(b))) for b in branches])


def predual(kraus_list, rho):
    return sum(k @ rho @ dag(k) for k in kraus_list)


def word_branches(rho, steps):
    """Densities of all measurement words; `steps` holds one list of outcome
    Kraus families per time step, earliest first."""
    out = [rho]
    for families in steps:
        out = [predual(fam, b) for b in out for fam in families]
    return out


def brute_force_an(rho, unitary, families, depth):
    """a_n for n=1..depth by explicit word enumeration.

    families: list of Kraus families (one per outcome) of the measurement;
    the dynamics conjugates by the unitary.
    """

    def conj_families(power):
        u = np.linalg.matrix_power(unitary if power >= 0 else dag(unitary), abs(power))
        return [[u @ k @ dag(u) for k in fam] for fam in families]

    values = []
    after = sum(predual(fam, rho) for fam in families)
    for n in range(1, depth + 1):
        past_steps = [conj_families(-k) for k in range(1, n + 1)]
        branches_joint = word_branches(rho, [families] + past_steps)
        branches_past = word_branches(after, past_steps)
        values.append(info_from_branches(branches_joint) - info_from_branches(branches_past))
    return values


def site_shift(s, sites):
    """The cyclic shift of `sites` sites of dimension s on their product basis,
    |i_1 i_2 ... i_L> -> |i_L i_1 ... i_{L-1}>: a permutation unitary."""
    shape = (s,) * sites
    u = np.zeros((s**sites, s**sites))
    for j, digits in enumerate(itertools.product(range(s), repeat=sites)):
        u[np.ravel_multi_index(digits[-1:] + digits[:-1], shape), j] = 1.0
    return u


def on_site(op, site, sites):
    """`op` on site `site` (0-based) of `sites` equal sites, the identity on the others."""
    s = op.shape[0]
    return np.kron(np.kron(np.eye(s**site), op), np.eye(s ** (sites - site - 1)))
