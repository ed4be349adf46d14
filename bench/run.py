"""Benchmark of the bermoments CLI: a closed loop with one client.

Run from the repository root:

    python3 bench/run.py --workload qh-weights --seed 0 --seconds 38 --trace 0

Each request is one ``python -m bermoments.cli ARGV...`` subprocess, started
only after the previous one ended.  The workload's requests run in a cycle,
again and again, until ``--seconds`` of reference time (below) is spent;
the first cycle always completes.

Times are reported in reference seconds.  The speed of a shared host drifts
by up to half over seconds to minutes, and a request's wall and CPU time
drift with it.  So the spawner times a fixed calibration computation just
before and just after each request (``spawner.py``), and each of the
request's times is scaled by REFERENCE_CAL_S over that calibration time:
the time the request would take on a host where the calibration takes
REFERENCE_CAL_S.  The host's own seconds are printed too, for reading.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` one untraced and one traced cycle
give the per-layer metrics and the tracing overhead, and the spans are
written to ``.bench_build/``.  Every output goes through the exactness gate
of ``checks.py``; a request that fails it, or a malformed-input request that
does not exit 2 with one line on stderr, counts as failed and is named in
the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

# a run must end within 180 s; no request may start a wait beyond this
HARD_LIMIT_S = 170.0
# host time a run may take, as a multiple of --seconds
REAL_TIME_FACTOR = 1.5
SETUP_PER_CYCLE = 4
SETUP_ARGV = ("--help",)  # interpreter start, import, argparse, no work
# calibration time (spawner.calibrate) of the reference host speed: about a
# quiet 2.1 GHz Xeon core
REFERENCE_CAL_S = 0.015


@dataclass
class Result:
    request: object
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    cal_s: float

    def ref(self, seconds: float) -> float:
        """`seconds` of this request at the reference speed of the host."""
        return seconds * REFERENCE_CAL_S / self.cal_s

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


class Runner:
    """Runs requests one at a time through the spawner process (spawner.py)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        OUT.mkdir(exist_ok=True)
        self.out_path, self.err_path = OUT / f"stdout-{os.getpid()}", OUT / f"stderr-{os.getpid()}"
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        self.out_path.unlink(missing_ok=True)
        self.err_path.unlink(missing_ok=True)

    def run(self, request, prefix=(sys.executable, "-m", "bermoments.cli")) -> Result:
        job = {
            "argv": [*prefix, *request.argv],
            "stdout": str(self.out_path),
            "stderr": str(self.err_path),
            "timeout": self.deadline - time.monotonic(),
        }
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        answer = json.loads(self.spawner.stdout.readline())
        return Result(
            request, answer["exit"], self.out_path.read_bytes(), self.err_path.read_bytes(),
            answer["wall_s"], answer["cpu_s"], answer["maxrss_kb"], answer["cal_s"],
        )

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def tail_percentile(samples: list) -> tuple:
    """(value, percentile, n): the highest percentile with >= 10 samples above it.

    The value is the (n-10)-th smallest sample, so exactly ten samples lie
    beyond it.  With ten samples or fewer no such percentile exists, and
    the maximum is reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(runner: Runner, requests: list, seconds: float) -> tuple:
    """Cycle through the requests for `seconds`; returns (samples, setup).

    samples maps rid -> results.  A further cycle starts only if, as long
    as the last one, it still ends within `seconds` of reference time (the
    sum of the requests' times at the reference speed), so every request has
    the same number of samples, and that number, which sets the percentile
    behind latency_tail_s, does not change with the host's speed.  A cycle
    also has to end within REAL_TIME_FACTOR * `seconds` of host time, so a
    very slow host shortens the run.  Each cycle starts with SETUP_PER_CYCLE
    no-work invocations, which spreads the set-up samples over the run.
    """
    import workloads

    no_work = workloads.Request("setup", SETUP_ARGV)
    samples = {r.rid: [] for r in requests}
    setup = []
    start, spent = time.perf_counter(), 0.0
    while True:
        cycle_start, cycle_spent = time.perf_counter(), 0.0
        for request in [no_work] * SETUP_PER_CYCLE + list(requests):
            if runner.expired():
                return samples, setup
            result = runner.run(request)
            cycle_spent += result.ref(result.wall_s)
            if request is no_work:
                setup.append(result)
            else:
                samples[request.rid].append(result)
        spent += cycle_spent
        now = time.perf_counter()
        if spent + cycle_spent > seconds or now - start + (now - cycle_start) > REAL_TIME_FACTOR * seconds:
            return samples, setup


def gate(requests: list, samples: dict, seed: int, workload: str) -> tuple:
    """Exactness gate; returns (failures, exactness_ok).

    failures maps request id -> reason.  An outcome error (exit code, stray
    stderr, malformed-input contract) fails the request; a pinned-digest or
    cross-route mismatch, or an output that differs between runs of the
    same request, also clears exactness_ok.
    """
    import checks
    from workloads import DEFAULT_SEED, USAGE

    pins = checks.load_pins()[workload] if seed == DEFAULT_SEED else None
    outputs = {rid: runs[0].stdout for rid, runs in samples.items() if runs}
    failures, exact = {}, True
    for request in requests:
        runs = samples[request.rid]
        if not runs:
            failures[request.rid] = "not run before the time limit"
            continue
        first = runs[0]
        reason = checks.outcome_error(request, first.exit, first.stdout, first.stderr)
        if reason is None and request.expect != USAGE:
            mismatch = (pins is not None and checks.pin_error(request, first.exit, first.digest, pins)) or (
                checks.verify(request, first.stdout, outputs)
            )
            if mismatch is None and any((r.exit, r.digest) != (first.exit, first.digest) for r in runs):
                mismatch = "output differs between runs"
            if mismatch:
                reason, exact = mismatch, False
        if reason:
            failures[request.rid] = reason
    return failures, exact


def per_cycle(samples: dict, key) -> float:
    """One run of every request, each at its mean over the cycles."""
    return sum(statistics.fmean(key(r) for r in runs) for runs in samples.values() if runs)


def end_to_end(samples: dict, setup: list, error_rate: float) -> tuple:
    """End-to-end metrics; every time is in reference seconds (Result.ref)."""
    from workloads import USAGE

    results = [r for runs in samples.values() for r in runs]
    # the malformed-input probes count in error_rate, not in the latencies
    latencies = [r.ref(r.wall_s) for r in results if r.request.expect != USAGE]
    tail, pct, n = tail_percentile(latencies)
    metrics = {
        "wall_s": (per_cycle(samples, lambda r: r.ref(r.wall_s)), "s"),
        "cpu_s": (per_cycle(samples, lambda r: r.ref(r.cpu_s)), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(r.ref(r.wall_s) for r in setup), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
        "error_rate": (error_rate, "ratio"),
    }
    counts = [len(runs) for runs in samples.values()]
    details = {
        "cycles": max(counts),
        "latency_samples": n,
        "latency_tail_percentile": round(pct, 2),
        # for reading only: the host's speed over the run, and the figures
        # in its own seconds, which drift with that speed
        "cal_s_median": statistics.median(r.cal_s for r in results + setup),
        "host_wall_s": per_cycle(samples, lambda r: r.wall_s),
        "host_setup_s": statistics.median(r.wall_s for r in setup),
    }
    return metrics, details


def traced_cycles(runner: Runner, requests: list, tag: str) -> tuple:
    """One untraced and one traced cycle; returns (samples, span files)."""
    import tracer

    samples = {r.rid: [] for r in requests}
    for request in requests:
        if not runner.expired():
            samples[request.rid].append(runner.run(request))
    span_files = []
    for i, request in enumerate(requests):
        if runner.expired():
            break
        path = OUT / f"spans-{tag}-{i}.json"
        path.unlink(missing_ok=True)
        prefix = (sys.executable, str(Path(tracer.__file__)), str(path), request.rid)
        samples[request.rid].append(runner.run(request, prefix))
        if path.exists():
            with open(path, encoding="utf-8") as handle:
                span_files.append(json.load(handle))
            path.unlink()
    with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(span_files, handle)
    return samples, span_files


def layer_report(samples: dict, span_files: list, tag: str) -> tuple:
    """Per-layer metrics of the traced cycle, with the overhead over the untraced one."""
    import tracer

    pairs = [runs for runs in samples.values() if len(runs) == 2]
    layers = tracer.layer_metrics(span_files, sum(len(runs[1].stdout) for runs in pairs))
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    untraced = sum(runs[0].ref(runs[0].wall_s) for runs in pairs)
    metrics["tracing.overhead"] = (sum(runs[1].ref(runs[1].wall_s) for runs in pairs) / untraced, "ratio")
    print("function\tcalls\tinclusive_s\tself_s")
    table = tracer.function_table(span_files)
    for name, (calls, incl, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name}\t{calls}\t{incl:.6f}\t{own:.6f}")
    return metrics, {"spans": str((OUT / f"spans-{tag}.json").relative_to(ROOT))}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("ratio", "ratio"), ("bits", "bits"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bermoments" / "cli.py").is_file():
        print(f"error: no bermoments sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}"
    runner = Runner(time.monotonic() + HARD_LIMIT_S)
    try:
        if args.trace:
            samples, span_files = traced_cycles(runner, requests, tag)
        else:
            samples, setup = measure(runner, requests, args.seconds)
    finally:
        runner.close()

    # in a traced run the gate compares each traced digest with the untraced one
    failures, exact = gate(requests, samples, args.seed, args.workload)
    results = [r for runs in samples.values() for r in runs]
    attempted, failed = len(results), sum(r.request.rid in failures for r in results)
    if args.trace:
        metrics, details = layer_report(samples, span_files, tag)
    else:
        metrics, details = end_to_end(samples, setup, failed / attempted)

    print("request\texit\twall_s\tcpu_s\tcal_s\tmaxrss_mb")
    for runs in samples.values():
        for res in runs[:1]:
            print(f"{res.request.rid}\t{res.exit}\t{res.wall_s:.4f}\t{res.cpu_s:.4f}\t{res.cal_s:.4f}\t{res.maxrss_kb / 1024:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    for rid, reason in failures.items():
        print(f"FAILED\t{rid}\t{reason}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details, "failed_requests": sorted(failures)}))
    print(json.dumps({
        "correct": exact,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
