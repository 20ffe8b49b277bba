#!/usr/bin/env python3
"""Record the reference digests of every exact op output.

    python3 bench/record_reference.py [workload ...]

Runs each op of each named workload (default: all) once per input variant,
requires its independent oracle to pass, and stores the digest of its
canonical output in bench/reference.json, keeping the entries of workloads
not named. Re-record only when a change is meant to alter an exact output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(workload: str) -> dict[str, dict[str, str]]:
    sys.path.insert(0, str(run.ROOT / "src"))
    out = {}
    work = run.HERE / ".work" / f"record-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for variant in range(workloads.VARIANTS):
            _, hl, instances, paths = run.setup(workload, variant, work)
            digests = {}
            for op in workloads.make_ops(workload, hl, instances, paths):
                result = op.call()
                if not op.oracle(result):
                    raise SystemExit(f"{workload} variant {variant}: oracle rejects {op.name}")
                if op.canon is not None:
                    digests[op.name] = workloads.digest(op.canon(result))
            out[str(variant)] = digests
            print(f"{workload} variant {variant}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    data = {"variants": workloads.VARIANTS, "digests": {}}
    if run.REFERENCE.exists():
        kept = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        if kept["variants"] == workloads.VARIANTS:
            data = kept
    for name in names:
        data["digests"][name] = record(name)
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
