"""Command-line entry point.

    qde run <spec.json> [--out DIR] [--seed S]
    qde verify [--dims 2,3,4] [--trials K] [--seed S] [--out DIR]
    qde capacity <spec.json> --n {1,2} [--out DIR] [--seed S]

Exit codes: 0 success, 2 validation failure, 3 property-suite violation,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import QdeError, SpecFormatError
from .harness import SCHEMA_VERSION, SystemSpec, parse_spec, run_task, write_record


def _dims(text: str) -> list[int]:
    try:
        return [int(d) for d in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qde", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the task declared in a spec file")
    run.add_argument("spec", help="path to a JSON system spec")
    run.add_argument("--out", default=None, help="directory for result files")
    run.add_argument("--seed", type=_seed, default=None)

    verify = sub.add_parser("verify", help="run the randomized property suite")
    verify.add_argument("--dims", type=_dims, default="2,3,4", help="comma-separated dimensions")
    verify.add_argument("--trials", type=int, default=200)
    verify.add_argument("--seed", type=_seed, default=0)
    verify.add_argument("--out", default=None)

    cap = sub.add_parser("capacity", help="finite-block capacity bounds for a spec")
    cap.add_argument("spec", help="path to a JSON system spec")
    cap.add_argument("--n", type=int, choices=(1, 2), default=1)
    cap.add_argument("--out", default=None)
    cap.add_argument("--seed", type=_seed, default=None)
    return parser


def _load_spec(path: str) -> SystemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFormatError(path, f"cannot read spec file: {exc.strerror}") from exc
    return parse_spec(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            raw = {
                "schema_version": SCHEMA_VERSION,
                "task": "verify",
                "params": {
                    "dims": args.dims,
                    "trials": args.trials,
                    "seed": args.seed,
                },
            }
            spec = parse_spec(json.dumps(raw))
            stem = "verify"
        else:
            spec = _load_spec(args.spec)
            stem = os.path.splitext(os.path.basename(args.spec))[0]
        if args.command == "capacity":
            if spec.task != "capacity":
                raise SpecFormatError(
                    "task", f"qde capacity needs a capacity spec, got {spec.task!r}"
                )
            spec.params["n"] = args.n
        record = run_task(spec, seed=args.seed)
        print(record.human_table())
        if args.out:
            for path in write_record(record, args.out, stem):
                print(f"wrote {path}")
        return 3 if record.has_violation else 0
    except QdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
