"""qde benchmark: one closed loop, one client, one process.

    python3 qdebench/run.py --workload {dynent,capacity,markov_embed}
        --seed N --seconds S --trace {0,1}
    python3 qdebench/run.py --selfcheck

Run from the repository root (the library is imported from ./src).  Each op
starts when the previous one has finished; its output is checked against an
independent oracle outside the timed region.  The last stdout line is one
JSON object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  Details, per-op latencies and spans go to .qdebench_out/.

End-to-end times are machine-speed normalized: a fixed reference kernel
runs before the first op and after every op, and each op's latency (and
each set-up) is scaled by REFERENCE_KERNEL_S over the mean of the kernel
times measured on either side of it.  The raw wall times are printed and
written beside them.  See README.md beside this file.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; at or below nproc on any machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.optimize

from selfcheck import selfcheck
from tracer import PREPARE, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qdebench_out"
SETUP_REPEATS = 5
# op_tail_s percentile: the highest of 50/75/90/95/99 that leaves at least 10
# latencies beyond it in a default-length run of every workload on a 2-core
# machine; fixed, so a faster program is not measured at another percentile
TAIL_PCT = 75
# the reference kernel's time on a shared 2-core Xeon VM at its usual speed;
# a normalized time is the time an op takes on a machine that runs the
# kernel in exactly this time
REFERENCE_KERNEL_S = 0.0035

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "result_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"qdebench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Put ./src first on the import path; refuse to run without it."""
    if not (SRC / "qde" / "__init__.py").is_file():
        fail(f"no qde sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def make_reference_kernel():
    """A fixed numpy/scipy kernel; returns a function giving its seconds.

    Nelder-Mead (40 iterations) on a 3 x 3 hermitian entropy objective,
    then one 96 x 96 eigensolve: Python-bound optimizer steps over small
    eigensolves, plus one LAPACK call of the size markov_embed spends its
    time in.  The functions are bound here, before tracing patches numpy
    and scipy.
    """
    eigvalsh, minimize = np.linalg.eigvalsh, scipy.optimize.minimize
    rng = np.random.default_rng(12345)
    drawn = []
    # the objective uses the three 3 x 3 draws; the others keep the stream,
    # and so the kernel's inputs and REFERENCE_KERNEL_S, as calibrated
    for d in (2, 3, 4, 3, 3):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        drawn.append(g + g.conj().T)
    small = [drawn[1], drawn[3], drawn[4]]
    big = rng.normal(size=(96, 96))
    big = big + big.T
    eye = np.eye(3)

    def entropy(x):
        h = x[0] * small[0] + x[1] * small[1] + x[2] * small[2]
        w = eigvalsh(h @ h.conj().T + eye)
        return float(np.sum(w * np.log(w)))

    def kernel() -> float:
        start = time.perf_counter()
        minimize(entropy, np.full(3, 0.3), method="Nelder-Mead",
                 options={"maxiter": 40, "xatol": 1e-12, "fatol": 1e-15})
        eigvalsh(big)
        return time.perf_counter() - start

    return kernel


def set_up(workload, seed: int):
    """Import qde afresh, generate the workload and prepare every op input.

    Returns (seconds, library, cases, prepared); the op order is a seeded
    shuffle of the generated mix.
    """
    for name in [n for n in sys.modules if n == "qde" or n.startswith("qde.")]:
        del sys.modules[name]
    start = time.perf_counter()
    lib = importlib.import_module("qde")
    importlib.import_module("qde.harness")
    rng = np.random.default_rng(seed)
    cases = workload.cases(rng)
    cases = [cases[i] for i in rng.permutation(len(cases))]
    prepared = [workload.prepare(lib, case) for case in cases]
    elapsed = time.perf_counter() - start
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        fail(f"imported qde from {lib.__file__}, expected {SRC}")
    return elapsed, lib, cases, prepared


class Loop:
    """Runs whole passes over the ops; keeps raw and normalized latencies,
    failures, and the reported and oracle nats of each distinct op."""

    def __init__(self, workload, lib, cases, kernel):
        self.workload, self.lib, self.cases, self.kernel = workload, lib, cases, kernel
        self.latencies: list[float] = []
        self.normalized: list[float] = []
        self.kernel_s: list[float] = [kernel()]
        self.failures: list[str] = []
        self.reported_nats = 0.0
        self.oracle_nats = 0.0
        self.passes = 0

    def run(self, prepared, budget_s: float, tracer=None, passes: int | None = None) -> None:
        """Run passes until the timed wall seconds reach the budget, or for
        `passes` passes.

        A pass that would end more than half a pass past the budget is not
        started.  `prepared` serves the first pass; later passes prepare
        fresh inputs outside the timed region, so no op reuses objects
        another op has touched.
        """
        timed = 0.0
        done = 0
        while True:
            if prepared is None:
                if tracer is not None:
                    tracer.op = PREPARE
                prepared = [self.workload.prepare(self.lib, c) for c in self.cases]
                if tracer is not None:
                    tracer.op = None
            pass_s = self._one_pass(prepared, tracer)
            prepared = None
            timed += pass_s
            done += 1
            if passes is not None:
                if done >= passes:
                    return
            elif timed + pass_s / 2 >= budget_s:
                return

    def _one_pass(self, prepared, tracer) -> float:
        first = self.passes == 0
        total = 0.0
        for index, (case, obj) in enumerate(zip(self.cases, prepared)):
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                output, error = self.workload.run(self.lib, obj), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                output, error = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            self.kernel_s.append(self.kernel())
            scaled = elapsed * REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[-2:])
            self.latencies.append(elapsed)
            self.normalized.append(scaled)
            total += elapsed
            if error is None:
                try:
                    nats = self.workload.check(case, output)
                except Exception as exc:  # any failed check counts the op as failed
                    error = exc
            if error is not None:
                self.failures.append(f"pass {self.passes} op {index} ({case.kind}): {error!r}")
            elif first:
                self.reported_nats += nats[0]
                self.oracle_nats += nats[1]
        self.passes += 1
        return total


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_json(name: str, payload) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="run the tracer self-check only")
    args = parser.parse_args(argv)

    load_library()
    if args.selfcheck:
        importlib.import_module("qde.harness")
        ok, lines = selfcheck()
        print("\n".join(lines))
        print("tracer self-check:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    if args.workload not in WORKLOADS:
        fail(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    facts = machine_facts()
    kernel = make_reference_kernel()
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel()
        elapsed, lib, cases, prepared = set_up(workload, args.seed)
        setups_raw.append(elapsed)
        setups.append(elapsed * REFERENCE_KERNEL_S / statistics.fmean((before, kernel())))

    loop = Loop(workload, lib, cases, kernel)
    loop.run(prepared, args.seconds / 2 if args.trace else args.seconds)
    untraced = len(loop.normalized)
    ops_per_s = untraced / sum(loop.normalized)
    rss = peak_rss_mb()
    lat, raw = list(loop.normalized), list(loop.latencies)
    tail = percentile(lat, TAIL_PCT)

    # a traced run whose tracer misses calls gives wrong per-layer counts
    traced_ok = True
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "machine": facts}
    if args.trace:
        ok, check_lines = selfcheck()
        tracer = Tracer()
        tracer.install()
        escaped = tracer.escaped_refs()
        traced_ok = ok and not escaped
        try:
            loop.run(None, 0.0, tracer=tracer, passes=1)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(len(cases))
        metrics["trace.overhead"] = ops_per_s * sum(loop.normalized[untraced:]) / len(cases)
        metrics["trace.escaped_refs"] = len(escaped)
        metrics["trace.selfcheck_ok"] = int(ok)
        units = {name: _layer_unit(name) for name in metrics}
        report.update(selfcheck=check_lines, escaped_refs=escaped)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{workload.name}-seed{args.seed}.spans.csv.gz")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_s": percentile(lat, 50),
            "op_tail_s": tail,
            "peak_rss_mb": rss,
            "result_ratio": loop.reported_nats / loop.oracle_nats if loop.oracle_nats else 0.0,
        }
        units = END_TO_END_UNITS

    attempted = len(loop.latencies)
    failed = len(loop.failures)
    beyond = sum(1 for x in lat if x > tail)
    kernel_s = loop.kernel_s
    lines = [
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"closed loop, 1 client, {loop.passes} passes x {len(cases)} ops",
        "machine " + "  ".join(f"{k}={v}" for k, v in facts.items()),
        f"reference kernel {statistics.median(kernel_s):.6f} s median, "
        f"{min(kernel_s):.6f}..{max(kernel_s):.6f} over {len(kernel_s)} runs "
        f"(normalized to {REFERENCE_KERNEL_S} s)",
        f"raw wall: setup {statistics.median(setups_raw):.6g} s, "
        f"{untraced / sum(raw[:untraced]):.6g} ops/s, p50 {percentile(raw[:untraced], 50):.6g} s, "
        f"p{TAIL_PCT} {percentile(raw[:untraced], TAIL_PCT):.6g} s",
        f"op_tail_s is p{TAIL_PCT} over {untraced} untraced ops, {beyond} beyond it",
        f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)",
        f"peak rss {peak_rss_mb():.1f} MB at exit",
        f"result nats {loop.reported_nats:.9g} reported, {loop.oracle_nats:.9g} by the oracles"
        + ("  (capacity_bound_nats: sum of C_n and D_n)" if workload.name == "capacity" else ""),
    ]
    lines += [f"  {name:34s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"FAILED {f}" for f in loop.failures[:20]]
    if not traced_ok:
        lines += ["FAILED tracer: per-layer counts are not trustworthy"]
        lines += [line for line in check_lines if line.startswith("BAD")]
        lines += [f"unwrapped reference {name}" for name in escaped]
    print("\n".join(lines))

    report.update(
        reference_kernel_s=kernel_s,
        setup_s=setups,
        setup_raw_s=setups_raw,
        tail_percentile=TAIL_PCT,
        latencies_s=lat,
        latencies_raw_s=raw,
        untraced_ops=untraced,
        reported_nats=loop.reported_nats,
        oracle_nats=loop.oracle_nats,
        failures=loop.failures,
        metrics=metrics,
    )
    write_json(f"{workload.name}-seed{args.seed}-trace{args.trace}.json", report)
    result = {
        "correct": failed == 0 and traced_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "trace.overhead":
        return "ratio"
    if name.endswith("_flops"):
        return "flop"
    if name == "trace.selfcheck_ok":
        return "bool"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
