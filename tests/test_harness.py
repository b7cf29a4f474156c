import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qde.cli import main
from qde.errors import ResourceCapExceeded, SpecFormatError
from qde.harness import ResultRecord, parse_spec, run_task, write_record

from conftest import LN2


def cm(matrix):
    """Encode a complex matrix as [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def info_spec():
    return {
        "schema_version": "1",
        "task": "info",
        "algebra": {"blocks": [2]},
        "state": cm(np.eye(2) / 2),
        "partitions": {
            "zbasis": [
                [cm(np.diag([1.0, 0.0]))],
                [cm(np.diag([0.0, 1.0]))],
            ]
        },
        "params": {"partition": "zbasis"},
    }


def test_parse_minimal_info_spec():
    spec = parse_spec(json.dumps(info_spec()))
    assert spec.task == "info"
    assert spec.state.weight == pytest.approx(1.0)
    assert spec.partitions["zbasis"].size == 2


def test_parse_flags_unit_sum_violation():
    raw = info_spec()
    raw["partitions"]["zbasis"][0] = [cm(np.diag([1.1, 0.0]))]
    with pytest.raises(SpecFormatError) as err:
        parse_spec(json.dumps(raw))
    assert "partitions.zbasis" in str(err.value)


def test_parse_flags_nonstochastic_markov():
    raw = {
        "schema_version": "1",
        "task": "classical",
        "classical": {"markov": [[0.9, 0.09], [0.1, 0.9]]},
        "params": {},
    }
    with pytest.raises(SpecFormatError) as err:
        parse_spec(json.dumps(raw))
    assert "classical.markov" in str(err.value)


def test_parse_flags_nonhermitian_state():
    raw = info_spec()
    raw["state"][0][1] = [1.0, 0.0]
    with pytest.raises(SpecFormatError) as err:
        parse_spec(json.dumps(raw))
    assert "state" in str(err.value)


def test_parse_rejects_bad_task():
    raw = info_spec()
    raw["task"] = "explode"
    with pytest.raises(SpecFormatError):
        parse_spec(json.dumps(raw))


def test_run_info_task():
    record = run_task(parse_spec(json.dumps(info_spec())))
    assert record.results["H"] == pytest.approx(LN2)
    assert record.results["direct_sum_residual"] <= 1e-10
    assert record.results["weights"] == {"0": pytest.approx(0.5), "1": pytest.approx(0.5)}


def test_run_dynent_task():
    raw = info_spec()
    raw["task"] = "dynent"
    raw["params"]["N"] = 3
    record = run_task(parse_spec(json.dumps(raw)))
    assert record.results["h_estimate"] == pytest.approx(0.0, abs=1e-12)
    assert [row[0] for row in record.series] == [1, 2, 3]


def sweep_spec(names):
    """A dynent spec with a trivial and an unsharp 2-outcome partition, sweeping `names`."""
    unsharp = np.diag([math.sqrt(0.8), math.sqrt(0.2)]), np.diag([math.sqrt(0.2), math.sqrt(0.8)])
    return {
        "schema_version": "1",
        "task": "dynent",
        "state": cm(np.eye(2) / 2),
        "partitions": {
            "trivial": [[cm(np.eye(2))]],
            "unsharp": [[cm(k)] for k in unsharp],
        },
        "params": {"N": 3, "partitions": names},
    }


def test_dynent_candidate_sweep_reports_the_best_candidate():
    record = run_task(parse_spec(json.dumps(sweep_spec(["trivial", "unsharp"]))))
    results = record.results
    assert results["best_candidate"] == "unsharp"
    assert set(results["candidate_h"]) == {"trivial", "unsharp"}
    assert results["candidate_h"]["trivial"] == 0.0
    assert results["candidate_h"]["unsharp"] > 0.05
    assert results["h_estimate"] == results["candidate_h"]["unsharp"]
    assert results["supremum_status"] == "lower bound over the supplied candidates"


@pytest.mark.parametrize("names", [["trivial", "nowhere"], "unsharp"])
def test_cli_rejects_a_bad_candidate_list_at_its_path(tmp_path, capsys, names):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(sweep_spec(names)))
    assert main(["run", str(spec_path)]) == 2
    assert "params.partitions" in capsys.readouterr().err


def test_run_classical_markov_task():
    raw = {
        "schema_version": "1",
        "task": "classical",
        "classical": {"markov": [[0.9, 0.1], [0.1, 0.9]]},
        "params": {"N": 5},
    }
    record = run_task(parse_spec(json.dumps(raw)))
    expected = -sum(0.5 * p * math.log(p) for p in (0.9, 0.1, 0.1, 0.9))
    assert record.results["h_estimate"] == pytest.approx(expected, abs=1e-10)
    assert len(record.series) == 5


# a 4-cycle on the uniform measure and a two-cell partition with fractional functions
PERMUTATION_SYSTEM = {
    "measure": [0.25, 0.25, 0.25, 0.25],
    "functions": [[0.6, 0.8, 1.0, 0.0], [0.8, 0.6, 0.0, 1.0]],
    "permutation": [1, 2, 3, 0],
}


def test_run_classical_permutation_task():
    from qde.classical import (
        FiniteSpace,
        FunctionPartition,
        classical_information,
        permutation_entropy_sequence,
    )

    raw = {"schema_version": "1", "task": "classical", "classical": PERMUTATION_SYSTEM,
           "params": {"N": 4}}
    record = run_task(parse_spec(json.dumps(raw)))
    space = FiniteSpace(np.array(PERMUTATION_SYSTEM["measure"]))
    zeta = FunctionPartition(np.array(PERMUTATION_SYSTEM["functions"]))
    seq = permutation_entropy_sequence(space, PERMUTATION_SYSTEM["permutation"], zeta, 4)
    assert record.results["H"] == classical_information(space, zeta)
    assert record.results["embedding_residual"] <= 1e-12
    assert record.results["h_estimate"] == seq.h_estimate
    assert record.results["monotonicity_residual"] == seq.monotonicity_residual
    assert record.series == [[n + 1, v] for n, v in enumerate(seq.values)]


@pytest.mark.parametrize("task", ["info", "dynent", "capacity"])
def test_cli_state_dimension_mismatch_fails_closed_at_state(tmp_path, capsys, task):
    raw = info_spec()
    raw["task"] = task
    del raw["algebra"]
    raw["state"] = cm(np.eye(3) / 3)
    spec_path = tmp_path / "mismatch.json"
    spec_path.write_text(json.dumps(raw))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert "state: state dimension 3 vs partition input 2" in captured.err
    assert "Traceback" not in captured.err


def test_run_capacity_task_with_channel():
    raw = {
        "schema_version": "1",
        "task": "capacity",
        "channel": {
            "kind": "ensemble",
            "states": [cm(np.diag([1.0, 0.0])), cm(np.diag([0.0, 1.0]))],
            "probs": [0.5, 0.5],
        },
        "params": {"n": 1, "restarts": 4, "max_iterations": 200},
    }
    record = run_task(parse_spec(json.dumps(raw)))
    assert record.results["C_1"] >= LN2 - 1e-4
    assert record.results["chi"] == pytest.approx(LN2)
    assert record.series == [[1, pytest.approx(record.results["C_1"])]]


def test_run_verify_task_small():
    raw = {
        "schema_version": "1",
        "task": "verify",
        "params": {"dims": [2, 3], "trials": 8, "seed": 0},
    }
    record = run_task(parse_spec(json.dumps(raw)))
    assert record.results["all_passed"]
    assert not record.has_violation


def test_an_explicit_negative_seed_fails_closed_at_its_path():
    raw = {"schema_version": "1", "task": "verify", "params": {"dims": [2], "trials": 1}}
    spec = parse_spec(json.dumps(raw))
    message = r"^seed: expected an integer of at least 0, got -1$"
    with pytest.raises(SpecFormatError, match=message) as err:
        run_task(spec, seed=-1)
    assert err.value.path == "seed" and err.value.exit_code == 2
    assert run_task(spec, seed=0).results["all_passed"]


def test_record_determinism():
    raw = json.dumps(info_spec())
    a = run_task(parse_spec(raw), seed=5)
    b = run_task(parse_spec(raw), seed=5)
    da = json.loads(a.to_json())
    db = json.loads(b.to_json())
    da.pop("wall_time_s")
    db.pop("wall_time_s")
    assert da == db


def test_human_table_contains_machine_numbers():
    record = run_task(parse_spec(json.dumps(info_spec())))
    table = record.human_table()
    for key in record.results:
        assert key in table


def test_write_record(tmp_path):
    raw = info_spec()
    raw["task"] = "dynent"
    raw["params"]["N"] = 2
    record = run_task(parse_spec(json.dumps(raw)))
    files = write_record(record, str(tmp_path), "case")
    assert (tmp_path / "case.result.json").exists()
    assert (tmp_path / "case.series.csv").exists()
    header = (tmp_path / "case.series.csv").read_text().splitlines()[0]
    assert header == "n,value"
    assert len(files) == 2


# --- CLI ------------------------------------------------------------------------


def test_cli_run_roundtrip(tmp_path, capsys):
    spec_path = tmp_path / "case.json"
    spec_path.write_text(json.dumps(info_spec()))
    code = main(["run", str(spec_path), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "task: info" in out
    assert (tmp_path / "case.result.json").exists()


def test_cli_missing_file(capsys):
    assert main(["run", "/nonexistent/path.json"]) == 2
    assert "cannot read spec file" in capsys.readouterr().err


def test_cli_rejects_invalid_spec(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    raw = info_spec()
    raw["partitions"]["zbasis"][0] = [cm(np.diag([1.1, 0.0]))]
    spec_path.write_text(json.dumps(raw))
    assert main(["run", str(spec_path)]) == 2
    assert "partitions.zbasis" in capsys.readouterr().err


def test_cli_resource_cap(tmp_path):
    raw = info_spec()
    raw["task"] = "dynent"
    raw["params"]["N"] = 40
    spec_path = tmp_path / "big.json"
    spec_path.write_text(json.dumps(raw))
    assert main(["run", str(spec_path)]) == 4


def test_cli_verify_small(capsys):
    assert main(["verify", "--dims", "2", "--trials", "5"]) == 0
    assert "all_passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [["--dims", "2,7", "--trials", "3"], ["--dims", "2,3,4,5", "--trials", "60", "--seed", "7"]],
)
def test_cli_verify_draws_partitions_that_span_inputs_wider_than_twice_an_output(args, capsys):
    # an input more than twice (three times for monotonicity) the output takes
    # more Kraus elements per outcome, so every drawn partition sums to the identity
    assert main(["verify", *args]) == 0
    assert "all_passed" in capsys.readouterr().out


def test_cli_capacity(tmp_path):
    raw = {
        "schema_version": "1",
        "task": "capacity",
        "channel": {"kind": "proportional", "weights": [0.5, 0.5], "dim": 2},
        "state": cm(np.eye(2) / 2),
        "params": {"restarts": 2, "max_iterations": 50},
    }
    spec_path = tmp_path / "cap.json"
    spec_path.write_text(json.dumps(raw))
    assert main(["capacity", str(spec_path), "--n", "1", "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "cap.result.json").read_text())
    assert abs(record["results"]["C_1"]) <= 1e-8


def _cli_subprocess(args, timeout=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "qde.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_import_qde_loads_no_scipy_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, qde; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_every_task_but_capacity_without_scipy(tmp_path, monkeypatch):
    # a scipy.py ahead of site-packages makes `import scipy` fail, as on a
    # machine without scipy; only the capacity search needs it
    (tmp_path / "scipy.py").write_text('raise ImportError("scipy is not installed")\n')
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")]))
    )
    dynent = dict(info_spec(), task="dynent", params={"partition": "zbasis", "N": 3})
    markov = {
        "schema_version": "1",
        "task": "classical",
        "classical": {"markov": [[0.9, 0.1], [0.1, 0.9]]},
        "params": {"N": 5},
    }
    for name, raw in (("info", info_spec()), ("dynent", dynent), ("markov", markov)):
        spec_path = tmp_path / f"{name}.json"
        spec_path.write_text(json.dumps(raw))
        proc = _cli_subprocess(["run", str(spec_path), "--out", str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / f"{name}.result.json").is_file()
    proc = _cli_subprocess(["verify", "--dims", "2", "--trials", "5"])
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words[words.index("all_passed") + 1] == "True"


def test_cli_non_numeric_matrix_entry_fails_closed(tmp_path):
    raw = info_spec()
    raw["state"][0][0] = ["x", 0]
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(raw))
    proc = _cli_subprocess(["run", str(spec_path)])
    assert proc.returncode == 2
    assert "state[0][0]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_non_numeric_param_fails_closed(tmp_path):
    raw = info_spec()
    raw["task"] = "dynent"
    raw["params"]["N"] = "six"
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(raw))
    proc = _cli_subprocess(["run", str(spec_path)])
    assert proc.returncode == 2
    assert "params.N" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda raw: raw["state"][1].__setitem__(1, [0.5, None]), "state[1][1]"),
        (lambda raw: raw["state"][0].__setitem__(0, [True, 0]), "state[0][0]"),
        (lambda raw: raw["state"][0].__setitem__(0, [math.nan, 0]), "state[0][0]"),
        (lambda raw: raw.__setitem__("algebra", {"blocks": ["2"]}), "algebra.blocks[0]"),
        (lambda raw: raw["params"].__setitem__("support_cutoff", "tiny"), "params.support_cutoff"),
        (lambda raw: raw["params"].__setitem__("seed", 1.5), "params.seed"),
        (lambda raw: raw["params"].__setitem__("partition", ["zbasis"]), "params.partition"),
        (lambda raw: raw.__setitem__("partitions", [raw["partitions"]["zbasis"]]), "partitions"),
        (
            lambda raw: raw.update(task="dynent", params={"partitions": "zbasis", "N": 2}),
            "params.partitions",
        ),
    ],
)
def test_non_numeric_values_raise_spec_errors_with_paths(mutate, path):
    raw = info_spec()
    mutate(raw)
    with pytest.raises(SpecFormatError) as err:
        run_task(parse_spec(json.dumps(raw)))
    assert err.value.path == path


def test_record_is_strict_json_with_nonfinite_values():
    record = ResultRecord(
        task="info",
        results={"H": math.inf, "gap": -math.inf, "bad": np.float64("nan"), "ok": 0.5},
        series=[[1, math.inf], [2, np.array([math.nan, 1.0])]],
        provenance={},
        wall_time_s=0.0,
    )

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads(record.to_json(), parse_constant=reject)
    assert data["results"] == {"H": "inf", "gap": "-inf", "bad": "nan", "ok": 0.5}
    assert data["series"] == [[1, "inf"], [2, ["nan", 1.0]]]


@pytest.mark.parametrize(
    "raw,path",
    [
        (
            {"task": "capacity", "channel": {"kind": "ensemble", "states": 3, "probs": [1.0]}},
            "channel.states",
        ),
        ({"task": "capacity", "channel": {"kind": "depolarizing", "dim": 0}}, "channel.dim"),
        ({"task": "classical", "classical": {"markov": [[0.5, 0.5], [1.0]]}}, "classical.markov"),
        ({"task": "verify", "params": {"dims": [0], "trials": 1}}, "params.dims[0]"),
        ({"task": "classical", "classical": {"measure": [0.5, 0.6]}}, "classical.measure"),
        (
            {"task": "classical", "classical": {"functions": [[1.0, 0.5], [0.0, 0.5]]}},
            "classical.functions",
        ),
        (
            {
                "task": "capacity",
                "channel": {"kind": "ensemble", "states": [[[[1, 0], [0, 0]]]], "probs": [1.0]},
            },
            "channel",
        ),
        (
            {
                "task": "capacity",
                "channel": {
                    "kind": "ensemble",
                    "states": [cm(np.diag([1.0, 0.0])), cm(np.diag([0.0, 1.0]))],
                    "probs": [1.0],
                },
            },
            "channel",
        ),
        (
            {
                "task": "info",
                "state": cm(np.eye(2) / 2),
                "partitions": {
                    "z": {"maps": [{"label": [], "kraus": [cm(np.eye(2))]}]},
                },
            },
            "partitions.z.maps[0].label",
        ),
        (
            {"task": "capacity", "channel": {"kind": "proportional", "weights": [1.0], "dim": 1e7}},
            "channel.dim",
        ),
        ({"task": "verify", "params": {"dims": [65], "trials": 1}}, "params.dims[0]"),
    ],
)
def test_malformed_task_specs_raise_spec_errors_with_paths(raw, path):
    with pytest.raises(SpecFormatError) as err:
        run_task(parse_spec(json.dumps(dict(raw, schema_version="1"))))
    assert err.value.path == path


@pytest.mark.parametrize("n", [0, -1])
def test_cli_capacity_block_length_below_one_fails_closed(tmp_path, n):
    raw = {
        "schema_version": "1",
        "task": "capacity",
        "channel": {"kind": "proportional", "weights": [0.5, 0.5], "dim": 2},
        "state": cm(np.eye(2) / 2),
        "params": {"n": n, "restarts": 1, "max_iterations": 5},
    }
    spec_path = tmp_path / "cap.json"
    spec_path.write_text(json.dumps(raw))
    proc = _cli_subprocess(["run", str(spec_path)])
    assert proc.returncode == 2
    assert "params.n" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "classical,path",
    [
        ({"measure": [0.5, 0.6], "functions": [[1.0, 0.0], [0.0, 1.0]]}, "classical.measure"),
        ({"measure": [0.5, 0.5], "functions": [[1.0, 0.5], [0.0, 0.5]]}, "classical.functions"),
        # both dynamics report h_estimate and the series: one would overwrite the other
        (dict(PERMUTATION_SYSTEM, markov=[[0.9, 0.1], [0.1, 0.9]]), "classical"),
        ({"markov": [[0.9, 0.1], [0.1, 0.9]], "permutation": [1, 0]}, "classical"),
        ({"permutation": [1, 0]}, "classical.permutation"),
        (dict(PERMUTATION_SYSTEM, measure=[0.5, 0.5]), "classical.functions"),
        (dict(PERMUTATION_SYSTEM, permutation=[0, 0, 1, 2]), "classical.permutation"),
        (dict(PERMUTATION_SYSTEM, permutation=[0, 1, 2]), "classical.permutation"),
        (dict(PERMUTATION_SYSTEM, permutation=[10**30, 0, 1, 2]), "classical.permutation"),
        (
            dict(PERMUTATION_SYSTEM, measure=[0.1, 0.2, 0.3, 0.4], permutation=[1, 0, 3, 2]),
            "classical.permutation",
        ),
    ],
)
def test_cli_classical_spec_errors_fail_closed_at_their_path(tmp_path, classical, path):
    raw = {"schema_version": "1", "task": "classical", "classical": classical}
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(raw))
    proc = _cli_subprocess(["run", str(spec_path)])
    assert proc.returncode == 2
    assert f"{path}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_passes_dims_to_the_classical_term_suite(monkeypatch):
    import qde.properties
    from qde.properties import run_property_suite

    draw = qde.properties._random_triple
    seen = set()

    def recording(rng, dims):
        seen.add(tuple(dims))
        return draw(rng, dims)

    monkeypatch.setattr(qde.properties, "_random_triple", recording)
    results = run_property_suite(dims=(2,), trials=3)
    # classical_term, subadditivity, conditional_monotonicity and quantum_term
    # all draw their triples from the requested dimensions
    assert seen == {(2,)}
    assert results["classical_term"].trials == 3


def test_a_nan_trial_residual_fails_its_family_and_the_verify_record(monkeypatch):
    import qde.properties

    real = qde.properties.relative_entropy
    calls = []

    def nan_on_the_first_call(a, b):
        calls.append(None)
        return math.nan if len(calls) == 1 else real(a, b)

    monkeypatch.setattr(qde.properties, "relative_entropy", nan_on_the_first_call)
    record = run_task(parse_spec(json.dumps(
        {"schema_version": "1", "task": "verify", "params": {"dims": [2], "trials": 3}}
    )))
    # the first call belongs to the first trial of the first family
    family = record.results["families"]["lower_bound"]
    assert family["residual"] == math.inf and not family["passed"]
    assert record.results["max_residual"] == math.inf
    assert not record.results["all_passed"]
    assert record.has_violation
    assert json.loads(record.to_json())["results"]["max_residual"] == "inf"


def test_every_verify_family_keeps_its_name_tolerance_and_trial_count(monkeypatch):
    import qde.properties
    from qde.properties import run_property_suite

    # every suite returns 0 at once: this reads the registry and the trial caps
    registry = qde.properties._FAMILIES
    monkeypatch.setattr(qde.properties, "_FAMILIES", {
        name: (lambda rng, dims, trials: 0.0, tol, cap) for name, (_, tol, cap) in registry.items()
    })
    results = run_property_suite(trials=200)
    assert [(name, r.tolerance, r.trials) for name, r in results.items()] == [
        ("lower_bound", 1e-8, 200),
        ("joint_convexity", 1e-8, 200),
        ("monotonicity", 1e-8, 200),
        ("donald_identity", 1e-8, 200),
        ("scaling_identity", 1e-9, 200),
        ("decomposition_gap", 1e-8, 200),
        ("tracial_commutant", 1e-8, 200),
        ("direct_sum_agreement", 1e-8, 200),
        ("split_identity", 1e-8, 200),
        ("subadditivity", 1e-8, 200),
        ("conditional_monotonicity", 1e-8, 200),
        ("classical_term", 1e-8, 200),
        ("quantum_term", 1e-8, 200),
        ("conjugation_invariance", 1e-8, 200),
        ("an_certificate", 1e-8, 50),
        ("classical_refinement", 1e-8, 100),
        ("classical_conditional_monotonicity", 1e-8, 100),
        ("classical_transport", 1e-9, 100),
        ("classical_comparison", 1e-8, 100),
        ("embedding_agreement", 1e-8, 100),
    ]


def test_property_suite_without_dimensions_fails_closed():
    from qde.errors import ValidationFailure
    from qde.properties import run_property_suite

    with pytest.raises(ValidationFailure, match="at least one dimension"):
        run_property_suite(dims=(), trials=1)


def _cli_in_process(args, capsys):
    """Exit code and captured output of the CLI run in this interpreter; an
    uncaught exception (a traceback for a user) propagates and fails the test."""
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects an argument
        code = exc.code
    return code, capsys.readouterr()


def _capacity_params(**params):
    return {
        "schema_version": "1",
        "task": "capacity",
        "channel": {"kind": "proportional", "weights": [0.5, 0.5], "dim": 2},
        "state": cm(np.eye(2) / 2),
        "params": {"n": 1, "restarts": 1, "max_iterations": 5, **params},
    }


def _dynent_params(**params):
    raw = info_spec()
    raw["task"] = "dynent"
    raw["params"].update(params)
    return raw


def _markov_params(**params):
    return {
        "schema_version": "1",
        "task": "classical",
        "classical": {"markov": [[0.9, 0.1], [0.1, 0.9]]},
        "params": params,
    }


_VERIFY_SMALL = ["verify", "--dims", "2", "--trials", "1"]


@pytest.mark.parametrize(
    "spec,args,path",
    [
        (_markov_params(N=0), [], "params.N"),
        (_markov_params(N=-2), [], "params.N"),
        (_dynent_params(N=0), [], "params.N"),
        (_dynent_params(branch_cap=-1), [], "params.branch_cap"),
        (_capacity_params(restarts=0), [], "params.restarts"),
        (_capacity_params(max_iterations=0), [], "params.max_iterations"),
        (_capacity_params(seed=-1), [], "params.seed"),
        (
            {"schema_version": "1", "task": "verify", "params": {"trials": 1, "seed": -1}},
            [],
            "params.seed",
        ),
        (None, ["verify", "--trials", "0"], "params.trials"),
        (None, ["verify", "--trials", "-3"], "params.trials"),
        (None, [*_VERIFY_SMALL, "--seed", "-1"], "--seed"),
        (_markov_params(N=2), ["--seed", "-1"], "--seed"),
    ],
    ids=[
        "classical-N0", "classical-N-2", "dynent-N0", "dynent-branch_cap-1",
        "capacity-restarts0", "capacity-max_iterations0", "capacity-seed-1", "verify-seed-1",
        "verify--trials0", "verify--trials-3", "verify--seed-1", "run--seed-1",
    ],
)
def test_cli_counts_and_seeds_below_their_minimum_fail_closed(tmp_path, capsys, spec, args, path):
    if spec is not None:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        args = ["run", str(spec_path), *args]
    code, captured = _cli_in_process(args, capsys)
    assert code == 2
    assert path in captured.err


def test_cli_capacity_rejects_a_spec_of_another_task(tmp_path, capsys):
    spec_path = tmp_path / "info.json"
    spec_path.write_text(json.dumps(info_spec()))
    code, captured = _cli_in_process(["capacity", str(spec_path), "--n", "2"], capsys)
    assert code == 2
    assert "task:" in captured.err
    assert "task: info" not in captured.out


@pytest.mark.parametrize("cutoff", [2, -1, 1e-6])
def test_cli_support_cutoff_is_rejected_at_its_path(tmp_path, capsys, cutoff):
    raw = info_spec()
    raw["params"]["support_cutoff"] = cutoff
    spec_path = tmp_path / "info.json"
    spec_path.write_text(json.dumps(raw))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert "params.support_cutoff:" in captured.err


@pytest.mark.parametrize("cap", [1, 4096, 10**9])
def test_cli_branch_cap_is_rejected_at_its_path(tmp_path, capsys, cap):
    spec_path = tmp_path / "dynent.json"
    spec_path.write_text(json.dumps(_dynent_params(N=2, branch_cap=cap)))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert "params.branch_cap:" in captured.err


@pytest.mark.parametrize("key", ["params", "partitions"])
@pytest.mark.parametrize("falsy", [[], "", 0, False], ids=["list", "string", "zero", "false"])
def test_cli_falsy_non_object_params_and_partitions_fail_closed(tmp_path, capsys, key, falsy):
    raw = _capacity_params()
    raw[key] = falsy
    spec_path = tmp_path / "capacity.json"
    spec_path.write_text(json.dumps(raw))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert f"{key}:" in captured.err


def _unitary_spec(unitary):
    raw = _dynent_params(N=2)
    raw["unitary"] = cm(unitary)
    return raw


def _task_spec(task, **body):
    return {"schema_version": "1", "task": task, **body}


def _misspelled_dynent():
    """A dynent spec with a misspelled depth, a capacity knob and a misspelled key beside
    its partitions: each one is a key the task does not read."""
    raw = _dynent_params(depth=3, restarts=7)
    raw["partitons"] = raw["partitions"]
    return raw


_Z_MAPS = [[cm(np.diag([1.0, 0.0]))], [cm(np.diag([0.0, 1.0]))]]


@pytest.mark.parametrize(
    "raw, path",
    [
        (_unitary_spec(np.ones((2, 3)) / 2), "unitary"),
        (_unitary_spec(np.ones((3, 2)) / 2), "unitary"),
        (_unitary_spec(np.eye(3)), "unitary"),  # square, but the partitions act on C^2
        (sweep_spec([]), "params.partitions"),
        ({"schema_version": "1", "task": "verify", "params": {"dims": []}}, "params.dims"),
        (_misspelled_dynent(), "params.depth"),
        (dict(info_spec(), unitary=cm(np.eye(2))), "unitary"),
        (dict(info_spec(), algebra={"blocks": [2], "sizes": [2]}), "algebra.sizes"),
        (
            _task_spec("capacity", channel={"kind": "dephasing", "p": 0.1, "dim": 2},
                       state=cm(np.eye(2) / 2)),
            "channel.dim",
        ),
        (_task_spec("capacity", channel={"kind": "erasure", "p": 0.1}), "channel.kind"),
        ('{"schema_version": "1", "task": "info",', "$"),
        (dict(info_spec(), partitions={"z": {}}), "partitions.z"),
        (dict(info_spec(), partitions={"z": {"maps": [{"label": "up"}, {"kraus": _Z_MAPS[1]}]}}),
         "partitions.z.maps[0]"),
        (dict(info_spec(), partitions={"z": {"maps": [{"kraus": m, "weight": 1} for m in _Z_MAPS]}}),
         "partitions.z.maps[0].weight"),
        ({k: v for k, v in info_spec().items() if k != "state"}, "state"),
        ({k: v for k, v in _dynent_params(N=2).items() if k != "state"}, "state"),
        (_task_spec("capacity", channel={"kind": "dephasing", "p": 0.1}), "state"),
        (_task_spec("classical"), "classical"),
        (_task_spec("classical", classical=[[0.9, 0.1], [0.1, 0.9]]), "classical"),
        (_task_spec("classical", classical={"measure": [0.5, 0.5]}), "classical"),
        (_task_spec("classical", classical=dict(PERMUTATION_SYSTEM, permutation=1)),
         "classical.permutation"),
        (_task_spec("classical", classical=dict(PERMUTATION_SYSTEM, period=4)), "classical.period"),
        (dict(sweep_spec(["trivial", "unsharp"]),
              params={"N": 3, "partitions": ["trivial", "unsharp"], "partition": "nonexistent"}),
         "params.partition"),
        (_capacity_params(partition="nonexistent"), "params.partition"),
    ],
    ids=[
        "unitary-2x3", "unitary-3x2", "unitary-3x3-on-2x2", "empty-partitions", "empty-dims",
        "misspelled-params-key", "key-of-another-task", "unknown-algebra-key",
        "channel-key-of-another-kind", "unknown-channel-kind", "invalid-json",
        "partition-without-maps", "map-without-kraus", "unknown-map-key", "info-without-state",
        "dynent-without-state", "dephasing-without-state", "missing-classical",
        "non-object-classical", "classical-without-work", "non-list-permutation",
        "unknown-classical-key", "partition-beside-a-sweep", "partition-beside-a-channel",
    ],
)
def test_cli_bad_unitary_and_empty_lists_exit_2_at_their_path(tmp_path, capsys, raw, path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert captured.err.startswith(f"error: {path}:")


@pytest.mark.parametrize(
    "partition, path",
    [
        ([{"label": 1, "kraus": _Z_MAPS[0]}, {"label": "1", "kraus": _Z_MAPS[1]}],
         "partitions.z[1].label"),
        ({"maps": [{"label": "1", "kraus": _Z_MAPS[0]}, {"label": 1, "kraus": _Z_MAPS[1]}]},
         "partitions.z.maps[1].label"),
        ([{"label": "1", "kraus": _Z_MAPS[0]}, _Z_MAPS[1]], "partitions.z[1].label"),
        ([{"label": 1.5, "kraus": _Z_MAPS[0]}, {"label": "1.5", "kraus": _Z_MAPS[1]}],
         "partitions.z[1].label"),
    ],
    ids=["number-then-string", "object-form", "index-label", "float-then-string"],
)
def test_cli_labels_of_one_record_key_exit_2_at_the_later_label(tmp_path, capsys, partition, path):
    # an info record keys its weights by str(label): both outcomes would share one key
    spec_path = tmp_path / "labels.json"
    spec_path.write_text(json.dumps(dict(info_spec(), partitions={"z": partition}, params={})))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert captured.err.startswith(f"error: {path}: label ")
    assert "Traceback" not in captured.err


def test_cli_one_outcome_partition_gets_the_two_outcome_depth_limit(tmp_path):
    raw = _dynent_params(N=10**9)
    raw["partitions"] = {"trivial": [[cm(np.eye(2))]]}
    raw["params"]["partition"] = "trivial"
    spec_path = tmp_path / "deep.json"
    spec_path.write_text(json.dumps(raw))
    proc = _cli_subprocess(["run", str(spec_path)], timeout=60)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


def _code_specs(code, state):
    """One capacity problem given as a `code` channel and as a partition."""
    params = {"n": 1, "restarts": 2, "max_iterations": 30, "seed": 4}
    via_channel = {"task": "capacity", "channel": {"kind": "code", "code": code}, "params": params}
    via_partition = {"task": "capacity", "partitions": {"code": code}, "params": params}
    if state is not None:
        via_channel["state"] = via_partition["state"] = cm(state)
    return via_channel, via_partition


@pytest.mark.parametrize(
    "code,state",
    [
        # the two-letter dephasing code on a qubit state
        (
            [[cm(np.sqrt(0.8) * np.eye(2))], [cm(np.sqrt(0.2) * np.diag([1.0, -1.0]))]],
            np.diag([0.6, 0.4]) + 0.1 * np.array([[0, 1], [1, 0]]),
        ),
        # a preparation code (one-dimensional input): no state needed
        ([[cm(np.sqrt(0.5) * np.array([[1.0], [0.0]]))], [cm(0.5 * np.ones((2, 1)))]], None),
    ],
    ids=["dephasing", "preparation"],
)
def test_code_channel_and_partition_give_the_same_record(code, state):
    records = []
    for raw in _code_specs(code, state):
        record = json.loads(run_task(parse_spec(json.dumps(raw))).to_json())
        record.pop("wall_time_s")
        records.append(json.dumps(record, sort_keys=True))
    assert records[0] == records[1]


@pytest.mark.parametrize(
    "raw",
    [
        _dynent_params(N=10**300),
        _capacity_params(restarts=10**7),
        _capacity_params(max_iterations=10**300),
        _capacity_params(n=10**9),
    ],
    ids=["dynent-N", "capacity-restarts", "capacity-max_iterations", "capacity-n"],
)
def test_huge_counts_hit_a_resource_cap_before_any_work(raw):
    with pytest.raises(ResourceCapExceeded):
        run_task(parse_spec(json.dumps(raw)))


_ONE = cm(np.eye(1))


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"channel": {"kind": "ensemble", "states": [_ONE], "probs": [1.0]}}, "channel"),
        ({"channel": {"kind": "proportional", "weights": [0.5, 0.5], "dim": 1}, "state": _ONE},
         "channel"),
        ({"channel": {"kind": "depolarizing", "p": 0.5, "dim": 1}, "state": _ONE}, "channel"),
        ({"partitions": {"one": [[_ONE]]}}, "partitions.one"),
    ],
    ids=["ensemble", "proportional", "depolarizing", "partition"],
)
def test_cli_capacity_of_a_one_dimensional_output_exits_2_at_its_path(tmp_path, capsys, raw, path):
    spec_path = tmp_path / "capacity.json"
    spec_path.write_text(json.dumps({"schema_version": "1", "task": "capacity", **raw}))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert captured.err.startswith(f"error: {path}: capacity needs an output dimension")


_PERMUTATION_SPEC = {
    "schema_version": "1",
    "task": "classical",
    "classical": {
        "measure": [0.25, 0.25, 0.25, 0.25],
        "functions": [[1, 1, 0, 0], [0, 0, 1, 1]],
        "permutation": [1, 2, 3, 0],
    },
    "params": {"N": 10**9},
}


def test_cli_deep_permutation_spec_exits_4_before_any_level(tmp_path):
    # indicator cells on 4 points leave at most 4 live joins, so only the
    # depth cap stops 10**9 levels
    spec_path = tmp_path / "deep.json"
    spec_path.write_text(json.dumps(_PERMUTATION_SPEC))
    proc = _cli_subprocess(["run", str(spec_path)], timeout=60)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: depth 1000000000 exceeds")


def test_cli_markov_window_of_too_many_words_exits_4_before_allocating(tmp_path, capsys):
    # 65 symbols pass windows of 3 and refuse the window of 4 (65**4 > 4**12
    # words), where a 5-symbol chain would first build its 5**10-word windows
    raw = _markov_params(N=11)
    raw["classical"]["markov"] = np.full((65, 65), 1 / 65).tolist()
    spec_path = tmp_path / "markov65.json"
    spec_path.write_text(json.dumps(raw))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 4
    assert captured.err.startswith("error: window of length 4 (17850625 word entries) exceeds")


def test_cli_ensemble_member_with_a_negative_eigenvalue_exits_2_at_channel(tmp_path, capsys):
    # spectrum (1 + 5e-10, -5e-10): trace one, but below the -1e-10 clamping tolerance
    rho = np.diag([1 + 5e-10, -5e-10])
    channel = {"kind": "ensemble", "states": [cm(np.eye(2) / 2), cm(rho)], "probs": [0.5, 0.5]}
    spec_path = tmp_path / "ensemble.json"
    spec_path.write_text(json.dumps({"schema_version": "1", "task": "capacity", "channel": channel}))
    code, captured = _cli_in_process(["run", str(spec_path)], capsys)
    assert code == 2
    assert captured.err.startswith("error: channel: ensemble member 1: eigenvalue -5.000e-10")
