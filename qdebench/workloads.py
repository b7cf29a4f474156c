"""The benchmark's workloads: seeded inputs, the op each one runs, its oracle check.

Inputs are generated with numpy alone from the workload seed; the library
receives only the generated spec texts (or, for markov_embed, transition
matrices and window lengths).  Every workload is a fixed mix of op classes;
the seed draws the matrices inside each class and the order of the ops.

Why each workload exists and which layer it loads is documented in
README.md beside this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

A_N_TOL = 1e-8  # the library's own tolerance for the a_n oracle agreement
CHAIN_TOL = 1e-9  # slack on 0 <= D_n <= C_n <= H_upper and on monotonicity
ZERO_PLUS_D1_TOL = 1e-3  # D_1 of {|0>,|+>} must reach the projective optimum this closely


@dataclass
class Case:
    """One op's input, the data its oracle needs, and the oracle's answer once computed."""

    kind: str
    payload: object
    oracle_input: dict
    expected: object = field(default=None, repr=False)


def _cm(a) -> list:
    """Complex matrix as row-major [re, im] pairs, the spec format."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(a, dtype=complex)]


def _spec(task: str, **body) -> str:
    return json.dumps({"schema_version": "1", "task": task, **body})


def _random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_cp_families(rng, d, outcomes=2, kraus=2):
    raw = [
        [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(kraus)]
        for _ in range(outcomes)
    ]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for fam in raw for k in fam))
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return [[k @ whiten for k in fam] for fam in raw]


def _strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"record is not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


def _run_spec(lib, spec):
    return lib.harness.run_task(spec).to_json()


def _parse_spec(lib, case):
    return lib.harness.parse_spec(case.payload)


# -- dynent ------------------------------------------------------------------


def dynent_cases(rng) -> list[Case]:
    """9 random CP instances (d in 2..4, depth 5..7) and 3 permutation instances."""
    cases = []
    for d in (2, 3, 4):
        for depth in (5, 6, 7):
            u = _random_unitary(rng, d)
            _, vecs = np.linalg.eig(u)
            q, _ = np.linalg.qr(vecs)
            probs = rng.random(d) + 0.05
            rho = (q * (probs / probs.sum())) @ q.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            cases.append(_dynent_case("random_cp", rho, u, _random_cp_families(rng, d), depth))
    for d in (3, 4, 5):
        perm = rng.permutation(d)
        u = np.zeros((d, d), dtype=complex)
        u[perm, np.arange(d)] = 1.0
        probs = np.empty(d)
        seen = np.zeros(d, dtype=bool)
        for start in range(d):  # one random weight per cycle keeps the state invariant
            if seen[start]:
                continue
            cycle, i = [], start
            while not seen[i]:
                seen[i] = True
                cycle.append(i)
                i = perm[i]
            probs[cycle] = rng.random() + 0.05
        rho = np.diag(probs / probs.sum()).astype(complex)
        subset = np.zeros(d)
        subset[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] = 1.0
        families = [[np.diag(subset).astype(complex)], [np.diag(1.0 - subset).astype(complex)]]
        cases.append(_dynent_case("permutation", rho, u, families, 7))
    return cases


def _dynent_case(kind, rho, u, families, depth) -> Case:
    text = _spec(
        "dynent",
        state=_cm(rho),
        unitary=_cm(u),
        partitions={"zeta": [[_cm(k) for k in fam] for fam in families]},
        params={"N": depth},
    )
    return Case(kind, text, {"rho": rho, "u": u, "families": families, "depth": depth})


def dynent_check(case: Case, text: str) -> tuple[float, float]:
    if case.expected is None:
        o = case.oracle_input
        case.expected = oracles.dynent_oracle(o["rho"], o["u"], o["families"], o["depth"])
    h, values = case.expected
    rec = _strict_json(text)
    res, series = rec["results"], rec["series"]
    got = [row[1] for row in series]
    if [row[0] for row in series] != list(range(1, len(values) + 1)):
        raise AssertionError(f"series levels {[row[0] for row in series]}")
    worst = max(abs(a - b) for a, b in zip(got, values))
    if worst > A_N_TOL:
        raise AssertionError(f"a_n differs from word enumeration by {worst:.3e}")
    if abs(res["information_H"] - h) > A_N_TOL:
        raise AssertionError(f"H {res['information_H']} vs oracle {h}")
    if any(b > a + CHAIN_TOL for a, b in zip(got, got[1:])):
        raise AssertionError("a_n is not monotone nonincreasing")
    if max(got) > h + CHAIN_TOL:
        raise AssertionError("a_n exceeds the information H")
    if res["h_estimate"] != got[-1]:
        raise AssertionError("h_estimate is not the last a_n")
    return res["information_H"] + sum(got), h + sum(values)


# -- capacity ----------------------------------------------------------------

# fixed optimizer budgets, small enough that a default-length run holds about
# 40 ops or more; {|0>,|+>} at n=1 gets the 60 iterations its optimality
# check needs on every seed
N1_PARAMS = {"n": 1, "restarts": 2, "max_iterations": 30}
ZERO_PLUS_PARAMS = {"n": 1, "restarts": 2, "max_iterations": 60}
N2_PARAMS = {"n": 2, "restarts": 1, "max_iterations": 10}
_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _ket(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _random_qubit_state(rng):
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def capacity_cases(rng) -> list[Case]:
    """10 n=1 ops over the channel zoo and one n=2 op through capacity_rate."""
    trine = [_ket([np.cos(t), np.sin(t)]) for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
    zero_plus = [_ket([1, 0]), _ket([1, 1])]
    cases = [
        _ensemble_case("trine", trine, [1 / 3] * 3, rng, N1_PARAMS),
        _ensemble_case("zero_plus", zero_plus, [0.5, 0.5], rng, ZERO_PLUS_PARAMS),
    ]
    for _ in range(3):
        pair = [_ket(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(2)]
        cases.append(_ensemble_case("pure_pair", pair, [0.5, 0.5], rng, N1_PARAMS))
    p = rng.uniform(0.1, 0.9)
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    code = [[math.sqrt(w) * _PAULI[s]] for s, w in zip("ixyz", weights)]
    cases.append(_coded_case("depolarizing", {"kind": "depolarizing", "p": p}, code, rng))
    for _ in range(2):
        p = rng.uniform(0.05, 0.5)
        code = [[math.sqrt(1 - p) * _PAULI["i"]], [math.sqrt(p) * _PAULI["z"]]]
        cases.append(_coded_case("dephasing", {"kind": "dephasing", "p": p}, code, rng))
    for _ in range(2):
        w = rng.uniform(0.2, 0.8)
        code = [[math.sqrt(w) * _PAULI["i"]], [math.sqrt(1 - w) * _PAULI["i"]]]
        channel = {"kind": "proportional", "weights": [w, 1 - w], "dim": 2}
        cases.append(_coded_case("proportional", channel, code, rng))
    cases.append(_ensemble_case("zero_plus_n2", zero_plus, [0.5, 0.5], rng, N2_PARAMS))
    return cases


def _params(rng, base) -> dict:
    return {**base, "seed": int(rng.integers(2**31))}


def _ensemble_case(kind, states, probs, rng, base) -> Case:
    channel = {"kind": "ensemble", "states": [_cm(s) for s in states], "probs": list(probs)}
    text = _spec("capacity", channel=channel, params=_params(rng, base))
    branches = [p * s for s, p in zip(states, probs)]
    return Case(kind, text, {"branches": branches, "n": base["n"]})


def _coded_case(kind, channel, code, rng) -> Case:
    rho = _random_qubit_state(rng)
    text = _spec("capacity", channel=channel, state=_cm(rho), params=_params(rng, N1_PARAMS))
    branches = [sum(k @ rho @ k.conj().T for k in fam) for fam in code]
    return Case(kind, text, {"branches": branches, "n": 1})


def capacity_check(case: Case, text: str) -> tuple[float, float]:
    if case.expected is None:
        branches = case.oracle_input["branches"]
        case.expected = (
            oracles.holevo(branches),
            oracles.best_projective_qubit_information(branches),
        )
    chi, d1_best = case.expected
    res = _strict_json(text)["results"]
    if abs(res["chi"] - chi) > A_N_TOL:
        raise AssertionError(f"chi {res['chi']} vs Holevo oracle {chi}")
    nats = reference = 0.0
    for n in range(1, case.oracle_input["n"] + 1):
        c, d, upper = res[f"C_{n}"], res[f"D_{n}"], res[f"H_upper_{n}"]
        if abs(upper - n * chi) > A_N_TOL or abs(c - n * chi) > A_N_TOL:
            raise AssertionError(f"C_{n}={c}, H_upper_{n}={upper}, expected {n} chi = {n * chi}")
        if not -CHAIN_TOL <= d <= c + CHAIN_TOL:
            raise AssertionError(f"chain 0 <= D_{n} <= C_{n} broken: D={d}, C={c}")
        nats += c + d
        reference += n * (chi + d1_best)
    if res["D_1"] > d1_best + CHAIN_TOL:
        raise AssertionError(f"D_1={res['D_1']} exceeds the projective optimum {d1_best}")
    if case.kind == "zero_plus" and res["D_1"] < d1_best - ZERO_PLUS_D1_TOL:
        raise AssertionError(f"D_1={res['D_1']} short of the projective optimum {d1_best}")
    if case.oracle_input["n"] == 2 and res["D_2"] < 2 * res["D_1"] - CHAIN_TOL:
        raise AssertionError("D_2 fell below the product-measurement value 2 D_1")
    return nats, reference


# -- markov_embed --------------------------------------------------------------

# (alphabet, window length, count): small windows keep the op count up, the
# dimension-64..128 windows carry most of the time
MARKOV_MIX = ((2, 4, 4), (3, 3, 4), (2, 5, 4), (2, 6, 5), (3, 4, 1), (2, 7, 1))


def markov_cases(rng) -> list[Case]:
    cases = []
    for alphabet, length, count in MARKOV_MIX:
        for _ in range(count):
            p = rng.random((alphabet, alphabet)) + 0.1  # every transition positive
            p /= p.sum(axis=1, keepdims=True)
            cases.append(Case(f"window_{alphabet}^{length}", (p, length), {"p": p}))
    return cases


def _markov_prepare(lib, case):
    p, length = case.payload
    return lib.classical.SymbolicShift(p), length


def _markov_op(lib, prepared):
    shift, length = prepared
    n = length - 1
    space = shift.word_space(length)
    present = shift.coordinate_indicator(length, [n])
    past = shift.coordinate_indicator(length, range(n))
    state, q_present = lib.classical.embed_diagonal(space, present)
    _, q_past = lib.classical.embed_diagonal(space, past)
    return lib.dynamics.conditional_information(state, q_present, q_past)


def markov_check(case: Case, value: float) -> tuple[float, float]:
    if case.expected is None:
        case.expected = oracles.markov_rate(case.oracle_input["p"])
    if not abs(value - case.expected) <= A_N_TOL:
        raise AssertionError(f"conditional information {value} vs entropy rate {case.expected}")
    return value, case.expected


@dataclass(frozen=True)
class Workload:
    """A workload: case generator, per-op prepare/run, oracle check.

    `check(case, output)` raises when the output fails its oracle and
    otherwise returns (reported nats, oracle nats) for the op.
    """

    name: str
    cases: object
    prepare: object
    run: object
    check: object


WORKLOADS = {
    "dynent": Workload(
        "dynent", dynent_cases, _parse_spec, _run_spec, dynent_check
    ),
    "capacity": Workload(
        "capacity", capacity_cases, _parse_spec, _run_spec, capacity_check
    ),
    "markov_embed": Workload(
        "markov_embed", markov_cases, _markov_prepare, _markov_op, markov_check
    ),
}
