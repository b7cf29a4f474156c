"""Mutation fuzzing of the spec boundary: a spec with one JSON node replaced or
deleted either runs or fails closed with a documented exit code, never with
an escaping exception."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qde.cli import main


def cm(matrix):
    m = np.asarray(matrix, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


_Z = [[cm(np.diag([1.0, 0.0]))], [cm(np.diag([0.0, 1.0]))]]
_ROTATION = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])

BASES = {
    "info": {
        "schema_version": "1",
        "task": "info",
        "algebra": {"blocks": [2]},
        "state": cm(np.diag([0.7, 0.3])),
        "partitions": {"zbasis": _Z},
        "params": {"partition": "zbasis"},
    },
    "info_commutative": {
        "schema_version": "1",
        "task": "info",
        "algebra": {"blocks": [1, 1]},
        "state": cm(np.diag([0.7, 0.3])),
        "partitions": {"zbasis": _Z},
        "params": {"partition": "zbasis"},
    },
    "dynent": {
        "schema_version": "1",
        "task": "dynent",
        "state": cm(np.eye(2) / 2),
        "unitary": cm(_ROTATION),
        "partitions": {"zbasis": {"maps": [{"label": "up", "kraus": _Z[0]}, {"kraus": _Z[1]}]}},
        "params": {"N": 2},
    },
    "capacity": {
        "schema_version": "1",
        "task": "capacity",
        "channel": {
            "kind": "ensemble",
            "states": [cm(np.diag([1.0, 0.0])), cm(np.full((2, 2), 0.5))],
            "probs": [0.5, 0.5],
        },
        "params": {"n": 1, "restarts": 1, "max_iterations": 5, "seed": 0},
    },
    "capacity_code": {
        "schema_version": "1",
        "task": "capacity",
        "channel": {"kind": "proportional", "weights": [0.25, 0.75], "dim": 2},
        "state": cm(np.diag([0.6, 0.4])),
        "params": {"restarts": 1, "max_iterations": 5},
    },
}

# words the parser looks for, so that mutations reach past the first key lookup
_WORDS = st.sampled_from(
    ["kind", "code", "maps", "kraus", "label", "blocks", "states", "probs", "p", "dim",
     "weights", "partition", "partitions", "N", "n", "zbasis", "info", "dynent", "capacity",
     "ensemble", "depolarizing", "dephasing", "proportional"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | _WORDS
    | st.text(max_size=6)
    | st.integers(min_value=-3, max_value=8)
    | st.floats(min_value=-1e308, max_value=1e308)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_WORDS | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


# A mutation that removes a capacity spec's fast `params` runs the default
# search (20 restarts x 500 iterations, about 2 s); such draws come about once
# per 80 examples and set the test's time, so the budget stays at 200.
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_specs_exit_with_a_documented_code(data):
    raw = copy.deepcopy(BASES[data.draw(st.sampled_from(sorted(BASES)), label="base")])
    path = data.draw(st.sampled_from(list(_paths(raw))), label="path")
    if not path:
        raw = data.draw(_VALUES, label="value")
    else:
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_VALUES, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(raw, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["run", spec_path])
    assert code in (0, 2, 3, 4)
