"""Regenerate pins.json: exit code and stdout sha256 of every valid request.

    python3 bench/pin.py

Runs each workload once at the default seed.  A request is pinned only after
its outcome and cross-route checks pass, so a pin never records a wrong
answer.  Re-pin only when a change is meant to alter an output.
"""

from __future__ import annotations

import json
import sys
import time

from run import SRC, Runner

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import workloads  # noqa: E402


def pin_workload(runner: Runner, workload: str, errors: list) -> dict:
    requests = workloads.build(workload, workloads.DEFAULT_SEED)
    results = {r.rid: runner.run(r) for r in requests}
    outputs = {rid: res.stdout for rid, res in results.items()}
    pins = {}
    for request in requests:
        if request.expect == workloads.USAGE:
            continue
        res = results[request.rid]
        reason = checks.outcome_error(request, res.exit, res.stdout, res.stderr) or checks.verify(
            request, res.stdout, outputs
        )
        if reason:
            errors.append(f"{workload} {request.rid}: {reason}")
        else:
            pins[request.rid] = {"argv": list(request.argv), "exit": res.exit, "sha256": res.digest}
    return pins


def main() -> int:
    errors = []
    runner = Runner(time.monotonic() + 3600)
    try:
        pins = {w: pin_workload(runner, w, errors) for w in workloads.WORKLOADS}
    finally:
        runner.close()
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    # one request per line keeps diffs of re-pinned outputs readable
    lines = []
    for workload, entries in pins.items():
        rows = ",\n".join(f"  {json.dumps(rid)}: {json.dumps(pin)}" for rid, pin in entries.items())
        lines.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    with open(checks.PINS, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
