"""Declarative batch front end: parse system specs, dispatch tasks, emit records.

The input format is a single JSON object; complex matrix entries are
[re, im] pairs, row-major.  Tasks: info, dynent, capacity, classical,
verify.  Machine output is schema-stable JSON (same spec + same seed give
byte-identical records apart from the wall-time field) plus a CSV series
for the sequence-valued tasks.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import defaults
from .capacity import (
    OptimizerConfig,
    capacity_rate,
    dephasing_channel,
    depolarizing_channel,
    ensemble_channel,
    holevo_quantity,
    proportional_code_channel,
    unit_input_state,
)
from .classical import (
    FiniteSpace,
    FunctionPartition,
    SymbolicShift,
    _check_permutation,
    classical_information,
    embed_diagonal,
    markov_entropy_sequence,
    permutation_entropy_sequence,
)
from .dynamics import (
    an_sequence,
    information,
    information_via_direct_sum,
    invariance_check,
)
from .errors import QdeError, ResourceCapExceeded, SpecFormatError
from .linalg import BlockAlgebra
from .partitions import Automorphism, KrausMap, Partition
from .properties import run_property_suite
from .states import StateFunctional

SCHEMA_VERSION = "1"
TASKS = ("info", "dynent", "capacity", "classical", "verify")


@dataclass(frozen=True)
class ClassicalSystem:
    space: FiniteSpace | None = None
    functions: FunctionPartition | None = None
    permutation: list | None = None
    markov: SymbolicShift | None = None


@dataclass(frozen=True)
class SystemSpec:
    task: str
    state: StateFunctional | None
    partitions: dict
    unitary: Automorphism | None
    classical: ClassicalSystem | None
    channel: Partition | None  # a channel is given by its code
    params: dict


def _fail(path: str, message: str) -> SpecFormatError:
    return SpecFormatError(path, message)


# the keys each spec object may hold: the top level and params per task, the
# channel per kind, and the nested objects; _check_keys rejects any other key
_KEYS = {
    "info": "schema_version task params algebra state partitions",
    "info params": "partition seed",
    "dynent": "schema_version task params algebra state partitions unitary",
    "dynent params": "N partition partitions seed",
    # a capacity spec may hold partitions beside a channel, which then wins
    "capacity": "schema_version task params algebra state partitions channel",
    "capacity params": "n restarts max_iterations partition seed",
    "classical": "schema_version task params classical",
    "classical params": "N seed",
    "verify": "schema_version task params",
    "verify params": "dims trials seed",
    "ensemble channel": "kind states probs",
    "depolarizing channel": "kind p dim",
    "dephasing channel": "kind p",
    "proportional channel": "kind weights dim",
    "code channel": "kind code",
    "classical block": "measure functions permutation markov",
    "algebra": "blocks",
    "partition": "maps",
    "map": "label kraus",
}


def _check_keys(obj: dict, kind: str, path: str) -> None:
    """Fail at `<path>.<key>` on the first key of `obj` that a `kind` object may not hold."""
    allowed = _KEYS[kind].split()
    for key in obj:
        if key not in allowed:
            key_path = f"{path}.{key}" if path else key
            raise _fail(key_path, f"unknown key, expected one of {allowed}")


@contextmanager
def _at(path: str):
    """Report a library error raised inside the block at the spec path `path`;
    a SpecFormatError from a nested part passes through with its own path."""
    try:
        yield
    except SpecFormatError:
        raise
    except QdeError as exc:
        raise _fail(path, str(exc)) from exc


_NUMBER_TYPES = (int, float)  # what JSON numbers decode to; bool is excluded


def _number(value, path: str) -> float:
    if type(value) not in _NUMBER_TYPES:
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, "expected a finite number")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _dimension(value, path: str) -> int:
    dim = _integer(value, path)
    if dim < 1:
        raise _fail(path, f"expected a positive dimension, got {dim}")
    return dim


def _factor_dimension(value, path: str) -> int:
    """A dimension that alone sizes the matrices built from it, capped so that
    a map on it has a dim^2 x dim^2 Choi matrix within TENSOR_DIM_CAP."""
    dim = _dimension(value, path)
    if dim * dim > defaults.TENSOR_DIM_CAP:
        raise _fail(path, f"dimension {dim} exceeds {math.isqrt(defaults.TENSOR_DIM_CAP)}")
    return dim


def _int_param(params: dict, key: str, default: int, minimum: int = 1) -> int:
    """The integer `params.<key>` (or its default), rejected below `minimum`."""
    value = _integer(params.get(key, default), f"params.{key}")
    if value < minimum:
        raise _fail(f"params.{key}", f"expected an integer of at least {minimum}, got {value}")
    return value


def _matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise _fail(f"{path}[{i}]", "expected a list of [re, im] pairs")
        entries = []
        for j, cell in enumerate(row):
            if not (
                isinstance(cell, list)
                and len(cell) == 2
                and type(cell[0]) in _NUMBER_TYPES
                and type(cell[1]) in _NUMBER_TYPES
            ):
                raise _fail(f"{path}[{i}][{j}]", "expected an [re, im] pair of numbers")
            try:
                entry = complex(cell[0], cell[1])
            except OverflowError:  # an integer beyond the float range
                entry = complex(math.inf)
            if not cmath.isfinite(entry):
                raise _fail(f"{path}[{i}][{j}]", "expected finite numbers")
            entries.append(entry)
        rows.append(entries)
    if any(len(r) != len(rows[0]) for r in rows):
        raise _fail(path, "ragged matrix rows")
    return np.array(rows, dtype=complex)


def _vector(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a nonempty list of numbers")
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(obj)])


def _real_matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a nonempty list of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(obj)]
    if any(len(r) != len(rows[0]) for r in rows):
        raise _fail(path, "ragged matrix rows")
    return np.array(rows)


def _partition(obj, path: str) -> Partition:
    if isinstance(obj, dict):
        _check_keys(obj, "partition", path)
        obj = obj.get("maps")
        if obj is None:
            raise _fail(path, "partition object needs a 'maps' list")
        path = f"{path}.maps"
    if not isinstance(obj, list) or not obj:
        raise _fail(path, "expected a nonempty list of Kraus families")
    maps = []
    keys = set()  # records key outcomes by str(label), so 1 and "1" would collide
    for i, entry in enumerate(obj):
        label = i
        kraus_obj = entry
        if isinstance(entry, dict):
            _check_keys(entry, "map", f"{path}[{i}]")
            label = entry.get("label", i)
            if isinstance(label, (list, dict)):
                raise _fail(f"{path}[{i}].label", "expected a string or a number")
            kraus_obj = entry.get("kraus")
            if kraus_obj is None:
                raise _fail(f"{path}[{i}]", "map object needs a 'kraus' list")
        key = str(label)
        if key in keys:
            raise _fail(f"{path}[{i}].label", f"label {label!r} repeats the record key {key!r}")
        keys.add(key)
        if not isinstance(kraus_obj, list) or not kraus_obj:
            raise _fail(f"{path}[{i}]", "expected a nonempty list of Kraus matrices")
        kraus = tuple(
            _matrix(k, f"{path}[{i}].kraus[{j}]") for j, k in enumerate(kraus_obj)
        )
        with _at(f"{path}[{i}]"):
            maps.append(KrausMap(kraus, label=label))
    with _at(path):
        return Partition(tuple(maps))


def _channel(obj, path: str) -> Partition:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise _fail(path, "channel needs a 'kind'")
    kind = obj["kind"]
    if f"{kind} channel" not in _KEYS:
        raise _fail(f"{path}.kind", f"unknown channel kind {kind!r}")
    _check_keys(obj, f"{kind} channel", path)
    with _at(path):
        if kind == "ensemble":
            states = obj.get("states")
            if not isinstance(states, list) or not states:
                raise _fail(f"{path}.states", "expected a nonempty list of density matrices")
            states = [_matrix(m, f"{path}.states[{i}]") for i, m in enumerate(states)]
            return ensemble_channel(states, _vector(obj.get("probs"), f"{path}.probs"))
        if kind == "depolarizing":
            return depolarizing_channel(
                _number(obj.get("p", 0.5), f"{path}.p"),
                _factor_dimension(obj.get("dim", 2), f"{path}.dim"),
            )
        if kind == "dephasing":
            return dephasing_channel(_number(obj.get("p", 0.5), f"{path}.p"))
        if kind == "proportional":
            return proportional_code_channel(
                _vector(obj.get("weights"), f"{path}.weights"),
                _factor_dimension(obj.get("dim", 2), f"{path}.dim"),
            )
        return _partition(obj.get("code"), f"{path}.code")  # the code kind


def _classical(obj, path: str) -> ClassicalSystem:
    if not isinstance(obj, dict):
        raise _fail(path, "expected an object")
    _check_keys(obj, "classical block", path)
    space = functions = permutation = markov = None
    if "measure" in obj:
        with _at(f"{path}.measure"):
            space = FiniteSpace(_vector(obj["measure"], f"{path}.measure"))
    if "functions" in obj:
        with _at(f"{path}.functions"):
            functions = FunctionPartition(_real_matrix(obj["functions"], f"{path}.functions"))
    if "permutation" in obj:
        perm = obj["permutation"]
        if not isinstance(perm, list):
            raise _fail(f"{path}.permutation", "expected a list of integers")
        permutation = [_integer(x, f"{path}.permutation[{i}]") for i, x in enumerate(perm)]
    if "markov" in obj:
        with _at(f"{path}.markov"):
            markov = SymbolicShift(_real_matrix(obj["markov"], f"{path}.markov"))
    # the Markov and the permutation dynamics both report h_estimate and the series
    if markov is not None and permutation is not None:
        raise _fail(path, "markov and permutation exclude each other")
    if space is not None and functions is not None and functions.points != space.size:
        raise _fail(f"{path}.functions", f"{functions.points} points, measure has {space.size}")
    if permutation is not None:
        if space is None or functions is None:
            raise _fail(f"{path}.permutation", "a permutation needs measure and functions")
        with _at(f"{path}.permutation"):
            _check_permutation(space, permutation)
    return ClassicalSystem(space, functions, permutation, markov)


def parse_spec(text: str) -> SystemSpec:
    """Parse and validate a JSON system spec; errors carry the offending path."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise _fail("$", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _fail("$", "top level must be an object")
    version = str(raw.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise _fail("schema_version", f"unsupported version {version!r}")
    task = raw.get("task")
    if task not in TASKS:
        raise _fail("task", f"task must be one of {TASKS}, got {task!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise _fail("params", "expected an object")
    _check_keys(params, f"{task} params", "params")
    _check_keys(raw, task, "")

    algebra = None
    if "algebra" in raw:
        blocks = raw["algebra"]
        if isinstance(blocks, dict):
            _check_keys(blocks, "algebra", "algebra")
            blocks = blocks.get("blocks")
        if not isinstance(blocks, list):
            raise _fail("algebra", "expected a list of block sizes")
        sizes = tuple(_dimension(b, f"algebra.blocks[{i}]") for i, b in enumerate(blocks))
        with _at("algebra"):
            algebra = BlockAlgebra(sizes)

    state = None
    if "state" in raw:
        density = _matrix(raw["state"], "state")
        with _at("state"):
            state = StateFunctional.from_density(density, algebra)

    partitions = {}
    if not isinstance(raw.get("partitions", {}), dict):
        raise _fail("partitions", "expected an object of named partitions")
    for name, obj in raw.get("partitions", {}).items():
        partitions[name] = _partition(obj, f"partitions.{name}")

    unitary = None
    if "unitary" in raw:
        matrix = _matrix(raw["unitary"], "unitary")
        with _at("unitary"):
            unitary = Automorphism(matrix)

    classical = _classical(raw["classical"], "classical") if "classical" in raw else None
    channel = _channel(raw["channel"], "channel") if "channel" in raw else None
    return SystemSpec(
        task=task,
        state=state,
        partitions=partitions,
        unitary=unitary,
        classical=classical,
        channel=channel,
        params=params,
    )


@dataclass
class ResultRecord:
    """Machine- and human-readable outcome of one task."""

    task: str
    results: dict
    series: list
    provenance: dict
    wall_time_s: float

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "results": self.results,
            "series": self.series,
            "provenance": self.provenance,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)

    def human_table(self) -> str:
        lines = [f"task: {self.task}"]
        for key in sorted(self.results):
            lines.append(f"  {key:32s} {_fmt(self.results[key])}")
        if self.series:
            lines.append("  series:")
            for row in self.series:
                lines.append("    " + "  ".join(_fmt(v) for v in row))
        lines.append(f"  wall_time_s: {self.wall_time_s:.3f}")
        return "\n".join(lines)

    @property
    def has_violation(self) -> bool:
        checks = self.results.get("families") or {}
        return any(not entry["passed"] for entry in checks.values())


def _plain(value):
    """The payload with numpy values unwrapped and non-finite floats spelled
    "inf", "-inf" or "nan", so that it encodes as strict JSON."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


def _partition_name(spec: SystemSpec) -> str:
    """The name of the partition the task runs on: `params.partition`, or the only one."""
    if not spec.partitions:
        raise _fail("partitions", "task needs at least one partition")
    name = spec.params.get("partition")
    if name is None:
        if len(spec.partitions) > 1:
            raise _fail(
                "params.partition",
                f"several partitions given, choose one of {sorted(spec.partitions)}",
            )
        return next(iter(spec.partitions))
    if not isinstance(name, str) or name not in spec.partitions:
        raise _fail("params.partition", f"unknown partition {name!r}")
    return name


def _check_state_dimension(state: StateFunctional, zeta: Partition) -> None:
    if state.dim != zeta.dim_in:
        raise _fail("state", f"state dimension {state.dim} vs partition input {zeta.dim_in}")


def _task_info(spec: SystemSpec, seed: int) -> dict:
    if spec.state is None:
        raise _fail("state", "info task needs a state")
    zeta = spec.partitions[_partition_name(spec)]
    _check_state_dimension(spec.state, zeta)
    report = information(spec.state, zeta)
    direct = information_via_direct_sum(spec.state, zeta)
    results = {
        "H": report.total_H,
        "Hc": report.classical_Hc,
        "Hq": report.quantum_Hq,
        "split_residual": report.split_residual,
        "direct_sum_H": direct,
        "direct_sum_residual": abs(report.total_H - direct)
        if math.isfinite(report.total_H)
        else math.inf,
        "infinite": report.infinite_flag,
        "weights": {str(k): v for k, v in report.weights.items()},
        "invariance_residual": invariance_check(spec.state, zeta)
        if zeta.dim_in == zeta.dim_out
        else None,
    }
    return {"results": results, "series": []}


def _task_dynent(spec: SystemSpec, seed: int) -> dict:
    if spec.state is None:
        raise _fail("state", "dynent task needs a state")
    depth = _int_param(spec.params, "N", defaults.DEFAULT_DEPTH)
    names = spec.params.get("partitions")
    if names is not None and not (
        isinstance(names, list) and names and all(isinstance(n, str) for n in names)
    ):
        raise _fail("params.partitions", "expected a nonempty list of partition names")
    if names is None:
        candidates = {None: spec.partitions[_partition_name(spec)]}
    elif "partition" in spec.params:
        raise _fail("params.partition", "a sweep runs over params.partitions; give one of the two")
    else:
        # candidate sweep: the best estimate is only a lower bound on the
        # supremum over measurements, never the supremum itself
        missing = [n for n in names if n not in spec.partitions]
        if missing:
            raise _fail("params.partitions", f"unknown partitions {missing}")
        candidates = {n: spec.partitions[n] for n in names}
    per_candidate = {}
    best_name, best_seq = None, None
    for name, zeta in candidates.items():
        _check_state_dimension(spec.state, zeta)
        theta = spec.unitary or Automorphism.identity(zeta.dim_in)
        if theta.dim != zeta.dim_in:
            raise _fail("unitary", f"dimension {theta.dim} vs partition input {zeta.dim_in}")
        seq = an_sequence(spec.state, theta, zeta, depth)
        per_candidate[name] = seq
        if best_seq is None or seq.h_estimate > best_seq.h_estimate:
            best_name, best_seq = name, seq
    results = {
        "h_estimate": best_seq.h_estimate,
        "converged": best_seq.converged,
        "monotonicity_residual": best_seq.monotonicity_residual,
        "information_H": best_seq.information_bound,
        "depth": best_seq.depth,
    }
    if names is not None:
        results["candidate_h"] = {str(n): s.h_estimate for n, s in per_candidate.items()}
        results["best_candidate"] = str(best_name)
        results["supremum_status"] = "lower bound over the supplied candidates"
    series = [[n + 1, v] for n, v in enumerate(best_seq.values)]
    return {"results": results, "series": series}


def _task_capacity(spec: SystemSpec, seed: int) -> dict:
    if spec.channel is not None:
        if "partition" in spec.params:
            raise _fail("params.partition", "the task runs on its channel; drop params.partition")
        code, path = spec.channel, "channel"
    else:
        name = _partition_name(spec)
        code, path = spec.partitions[name], f"partitions.{name}"
    if code.dim_out < 2:
        raise _fail(path, f"capacity needs an output dimension of at least 2, got {code.dim_out}")
    phi = spec.state
    if phi is None:
        if code.dim_in != 1:
            raise _fail("state", "capacity task needs a state for a code with input dimension > 1")
        phi = unit_input_state()
    _check_state_dimension(phi, code)
    n_max = _int_param(spec.params, "n", 1)
    config = OptimizerConfig(
        restarts=_int_param(spec.params, "restarts", 20),
        max_iterations=_int_param(spec.params, "max_iterations", 500),
        seed=seed,
    )
    if config.restarts * config.max_iterations > defaults.SEARCH_CAP:
        raise ResourceCapExceeded(
            f"params.restarts * params.max_iterations exceeds the search cap {defaults.SEARCH_CAP}"
        )
    results = {"chi": holevo_quantity(phi, code)}
    series = []
    rate = capacity_rate(phi, code, n_max, config)
    results["superadditivity_residual"] = rate.superadditivity_residual
    for n, rep in rate.reports.items():
        results[f"C_{n}"] = rep.C_n_lower
        results[f"D_{n}"] = rep.D_n_lower
        results[f"H_upper_{n}"] = rep.H_upper
        results[f"converged_{n}"] = rep.converged
        series.append([n, rep.C_n_lower / n])
    return {"results": results, "series": series}


def _task_classical(spec: SystemSpec, seed: int) -> dict:
    cs = spec.classical
    if cs is None:
        raise _fail("classical", "classical task needs a classical block")
    results: dict = {}
    series: list = []
    depth = _int_param(spec.params, "N", 5)
    if cs.markov is not None:
        seq = markov_entropy_sequence(cs.markov, depth=depth)
        results["h_estimate"] = seq.h_estimate
        results["monotonicity_residual"] = seq.monotonicity_residual
        series = [[n + 1, v] for n, v in enumerate(seq.values)]
    if cs.space is not None and cs.functions is not None:
        results["H"] = classical_information(cs.space, cs.functions)
        state, embedded = embed_diagonal(cs.space, cs.functions)
        results["embedding_residual"] = abs(
            results["H"] - information(state, embedded).total_H
        )
        if cs.permutation is not None:
            seq = permutation_entropy_sequence(cs.space, cs.permutation, cs.functions, depth)
            results["h_estimate"] = seq.h_estimate
            results["monotonicity_residual"] = seq.monotonicity_residual
            series = [[n + 1, v] for n, v in enumerate(seq.values)]
    if not results:
        raise _fail("classical", "nothing to compute: give markov or measure+functions")
    return {"results": results, "series": series}


def _task_verify(spec: SystemSpec, seed: int) -> dict:
    dims = spec.params.get("dims", [2, 3, 4])
    if not isinstance(dims, (list, tuple)) or not dims:
        raise _fail("params.dims", "expected a nonempty list of dimensions")
    dims = tuple(_factor_dimension(d, f"params.dims[{i}]") for i, d in enumerate(dims))
    trials = _int_param(spec.params, "trials", 200)
    outcome = run_property_suite(dims=dims, trials=trials, seed=seed)
    families = {
        name: {
            "residual": r.residual,
            "tolerance": r.tolerance,
            "trials": r.trials,
            "passed": r.passed,
        }
        for name, r in outcome.items()
    }
    worst = max(r.residual for r in outcome.values())
    return {
        "results": {
            "families": families,
            "max_residual": worst,
            "all_passed": all(r.passed for r in outcome.values()),
        },
        "series": [],
    }


_DISPATCH = {
    "info": _task_info,
    "dynent": _task_dynent,
    "capacity": _task_capacity,
    "classical": _task_classical,
    "verify": _task_verify,
}


def run_task(spec: SystemSpec, seed: int | None = None) -> ResultRecord:
    """Dispatch one validated spec; deterministic under a fixed seed."""
    t0 = time.monotonic()
    seed = _int_param(spec.params, "seed", 0, minimum=0) if seed is None else int(seed)
    if seed < 0:  # an explicit seed, held to params.seed's minimum
        raise _fail("seed", f"expected an integer of at least 0, got {seed}")
    body = _DISPATCH[spec.task](spec, seed)
    return ResultRecord(
        task=spec.task,
        results=body["results"],
        series=body["series"],
        provenance=defaults.provenance(seed=seed),
        wall_time_s=time.monotonic() - t0,
    )


def write_record(record: ResultRecord, out_dir: str, stem: str) -> list[str]:
    """Write the JSON record (and CSV series, when present) atomically."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    target = os.path.join(out_dir, f"{stem}.result.json")
    _atomic_write(target, record.to_json() + "\n")
    written.append(target)
    if record.series:
        rows = "\n".join(",".join(_fmt(v) for v in row) for row in record.series)
        target = os.path.join(out_dir, f"{stem}.series.csv")
        _atomic_write(target, "n,value\n" + rows + "\n")
        written.append(target)
    return written


def _atomic_write(path: str, content: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
