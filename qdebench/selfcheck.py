"""Self-check of the tracer on fixed tiny instances.

The expected counts follow from the library code at the commit that added
the benchmark; a change to the library that alters them updates this table
in its own benchmark change.  For `information` on a 2-outcome partition
whose outcomes both carry weight:

* one DivergenceEngine on the mean output (one `eigh`),
* two divergences per outcome, of the normalized and of the unnormalized
  branch (one `eigvalsh` each),
* five functionals: two branches, their sum, two rescaled branches.

An outcome of zero weight skips both of its divergences.  `compose` of two
2-outcome projective partitions builds 4 composite KrausMaps, each
validated with one `eigvalsh` and none compressed (one Kraus element each).

The check also runs a tiny dynent, capacity and markov_embed op and
requires every span that feeds a per-layer metric to appear, so a name that
escaped patching shows up as a miss.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from tracer import Tracer
from workloads import _cm, _markov_op

FED_NAMES = (
    "linalg.numpy.eigh",
    "linalg.numpy.eigvalsh",
    "states.DivergenceEngine.__init__",
    "states.DivergenceEngine.report",
    "states.StateFunctional.__init__",
    "partitions.KrausMap.__post_init__",
    "partitions.compose",
    "partitions.kraus_from_choi",
    "partitions.conjugate",
    "dynamics.information",
    "dynamics.conditional_information",
    "optimize.minimize",
    "capacity.optimize_Cn",
    "capacity.optimize_Dn",
    "classical.embed_diagonal",
    "classical.SymbolicShift.cylinder_measures",
    "harness.parse_spec",
    "harness.run_task",
    "harness.ResultRecord.to_json",
)


def _tiny_specs():
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    plus = 0.5 * np.ones((2, 2))
    # 2 Kraus elements per outcome: depth 2 composes 8 > d^2 elements, so
    # Choi compression runs
    k = [np.sqrt(0.5) * p0, np.sqrt(0.5) * np.array([[0, 1], [0, 0]])]
    l = [np.sqrt(0.5) * p1, np.sqrt(0.5) * np.array([[0, 0], [1, 0]])]
    theta = 0.3
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    dynent = {
        "schema_version": "1",
        "task": "dynent",
        "state": _cm(np.eye(2) / 2),
        "unitary": _cm(u),
        "partitions": {"z": [[_cm(m) for m in k], [_cm(m) for m in l]]},
        "params": {"N": 2},
    }
    capacity = {
        "schema_version": "1",
        "task": "capacity",
        "channel": {"kind": "ensemble", "states": [_cm(p0), _cm(plus)], "probs": [0.5, 0.5]},
        "params": {"n": 1, "restarts": 1, "max_iterations": 5, "seed": 0},
    }
    return json.dumps(dynent), json.dumps(capacity)


def selfcheck() -> tuple[bool, list[str]]:
    """Returns (passed, report lines)."""
    lib = sys.modules["qde"]
    tracer = Tracer()
    tracer.install()
    lines, ok = [], True
    seen: dict[str, int] = {}

    def measure(label, thunk, expected):
        nonlocal ok
        tracer.clear()
        tracer.op = 0
        try:
            thunk()
        finally:
            tracer.op = None
        for name, count in tracer.counts().items():
            seen[name] = seen.get(name, 0) + count
        got = tracer.layer_metrics(1)
        for key, want in expected.items():
            passed = got[key] == want
            ok &= passed
            lines.append(f"{'ok ' if passed else 'BAD'} {label}: {key} = {got[key]} (expected {want})")

    try:
        escaped = tracer.escaped_refs()
        ok &= not escaped
        lines.append(f"{'ok ' if not escaped else 'BAD'} unwrapped references: {escaped}")

        states, partitions, dynamics = lib.states, lib.partitions, lib.dynamics
        zeta = partitions.vn_partition([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        mixed = states.StateFunctional.from_density(np.diag([0.7, 0.3]).astype(complex))
        pure = states.StateFunctional.from_density(np.diag([1.0, 0.0]).astype(complex))
        measure(
            "information, 2 weighted outcomes",
            lambda: dynamics.information(mixed, zeta),
            {
                "dynamics.information_calls": 1,
                "states.engine_builds": 1,
                "states.divergence_calls": 4,
                "linalg.eig_calls": 5,
                "linalg.eig_flops": 5 * 8.0,
                "states.functional_builds": 5,
                "dynamics.branches": 2,
                "dynamics.zero_weight_share": 0.0,
            },
        )
        measure(
            "information, one zero-weight outcome",
            lambda: dynamics.information(pure, zeta),
            {
                "states.engine_builds": 1,
                "states.divergence_calls": 2,
                "linalg.eig_calls": 3,
                "dynamics.branches": 2,
                "dynamics.zero_weight_share": 0.5,
            },
        )
        measure(
            "compose of two 2-outcome projective partitions",
            lambda: partitions.compose(zeta, zeta),
            {
                "partitions.compose_calls": 1,
                "partitions.krausmap_builds": 4,
                "partitions.choi_compressions": 0,
                "linalg.eig_calls": 4,
            },
        )
        dynent_text, capacity_text = _tiny_specs()
        harness = lib.harness
        measure(
            "dynent spec through the harness",
            lambda: harness.run_task(harness.parse_spec(dynent_text)).to_json(),
            {
                "dynamics.conditional_calls": 4,  # a_n and its transported form, n = 1, 2
                "dynamics.information_calls": 9,  # the base H plus two per conditional
                "partitions.conjugate_calls": 5,
            },
        )
        measure(
            "capacity spec, 1 restart per search, 5 iterations",
            lambda: harness.run_task(harness.parse_spec(capacity_text)).to_json(),
            {"capacity.restarts": 2, "capacity.maxiter_share": 1.0,
             "capacity.useful_restart_share": 1.0},
        )
        shift = lib.classical.SymbolicShift(np.array([[0.8, 0.2], [0.3, 0.7]]))
        measure(
            "markov window of length 2",
            lambda: _markov_op(lib, (shift, 2)),
            {"dynamics.conditional_calls": 1, "dynamics.information_calls": 2},
        )
        missed = [name for name in FED_NAMES if not seen.get(name)]
        ok &= not missed
        lines.append(f"{'ok ' if not missed else 'BAD'} metric-feeding spans never hit: {missed}")
    finally:
        tracer.uninstall()
    return ok, lines
