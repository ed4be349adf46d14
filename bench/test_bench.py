"""Self-tests of the benchmark: inputs, the tail rule and self-time accounting.

    python -m pytest bench/test_bench.py -q
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import REFERENCE_CAL_S, SETUP_PER_CYCLE, Result, end_to_end, measure, tail_percentile  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 1)


def _flag(argv, name):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    raise KeyError(name)


def test_same_seed_same_inputs_and_unique_ids():
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 7)
        assert first == workloads.build(workload, 7)
        assert first != workloads.build(workload, 8)
        assert len({r.rid for r in first}) == len(first)


def test_qh_weight_systems_are_in_their_bands():
    for seed in SEEDS:
        spectra = [r for r in workloads.build("qh-weights", seed) if r.rid.endswith(".spectrum")]
        assert len(spectra) == len(workloads.QH_SLOTS)
        for request, (m, d_band, size_band) in zip(spectra, workloads.QH_SLOTS):
            a = request.verify[1]
            assert _flag(request.argv, "--weights") == ",".join(f"1/{x}" for x in a)
            assert len(set(a)) == m and all(2 <= x <= 40 for x in a)
            assert d_band[0] <= math.lcm(*a) <= d_band[1]
            assert size_band[0] <= workloads.spectrum_size(a) <= size_band[1]


def test_spectrum_size_counts_the_lattice_sum():
    for a in ((2, 3), (3, 4, 6), (5, 7, 9)):
        assert workloads.spectrum_size(a) == len(checks.brieskorn_pham_spectrum(a))
    # mu = prod(a_i - 1) counts multiplicities, the size counts distinct values
    assert sum(checks.brieskorn_pham_spectrum((3, 4, 6)).values()) == 2 * 3 * 5


def test_deep_series_inputs_are_valid():
    for seed in SEEDS:
        for request in workloads.build("deep-series", seed):
            if request.expect == workloads.USAGE:
                continue
            if "--tpqr" in request.argv:
                p, q, r = map(int, _flag(request.argv, "--tpqr").split(","))
                assert q * r + p * r + p * q < p * q * r
                lo, hi = workloads.DEEP_TPQR_PRODUCT
                assert lo <= p * q * r <= hi
            if "--puiseux" in request.argv:
                pairs = [tuple(map(int, c.split(":"))) for c in _flag(request.argv, "--puiseux").split(",")]
                assert pairs[0][1] > pairs[0][0]
                assert all(n >= 2 and math.gcd(n, r) == 1 for n, r in pairs)
                assert all(d > 0 for d in workloads.puiseux_deltas(pairs))
                lo, hi = workloads.DEEP_CURVE_DENOMINATOR
                assert lo <= workloads.puiseux_denominator(pairs) <= hi
                lo, hi = workloads.DEEP_CURVE_MU
                assert lo <= workloads.puiseux_mu(pairs) <= hi


def test_puiseux_arithmetic_matches_known_branch():
    # (2,3),(2,7): w = (3, 13), edge determinant 13 - 3*2*2 = 1, denominator
    # 156, mu = 2*2 + 1*12 = 16
    pairs = ((2, 3), (2, 7))
    assert workloads.puiseux_w(pairs) == [3, 13]
    assert workloads.puiseux_deltas(pairs) == [1]
    assert workloads.puiseux_denominator(pairs) == 156
    assert workloads.puiseux_mu(pairs) == 16
    assert workloads.puiseux_mu(((3, 5), (2, 25))) == 60
    assert not workloads.is_valid_puiseux(((2, 3), (2, 5)))


def test_chern_pairs_share_manifold_and_nu():
    for seed in SEEDS:
        requests = {r.rid: r for r in workloads.build("chern-symbolic", seed)}
        for rid, request in requests.items():
            if not rid.endswith(".chern"):
                continue
            chi = requests[request.verify[1]]
            builtin = _flag(request.argv, "--builtin")
            vector = tuple(int(c) for c in _flag(chi.argv, "--chi").split(","))
            assert vector == vector[::-1] == workloads.chi_vector(builtin)
            assert _flag(chi.argv, "--nu") == _flag(request.argv, "--nu")
            assert _flag(chi.argv, "--kmax") == _flag(request.argv, "--kmax")
            assert Fraction(_flag(request.argv, "--nu")) > 0


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(30, 0, -1)]
    value, pct, n = tail_percentile(samples)
    assert n == 30 and value == 20.0
    assert sum(s > value for s in samples) == 10
    assert math.isclose(pct, 200 / 3)
    assert tail_percentile([3.0] * 5 + [9.0]) == (9.0, 100.0, 6)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli._cmd_gamma", 0.0, 10.0, -1, None],
        ["series.TruncatedSeries.exp", 1.0, 4.0, 0, None],
        ["series.TruncatedSeries.__mul__", 5.0, 9.0, 0, None],
        ["series.TruncatedSeries.__mul__", 6.0, 7.0, 2, None],
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    table = tracer.function_table([{"spans": spans, "caches": {}}])
    # the nested call of the same function adds a call and self time, but
    # no inclusive time, which its outer call already covers
    assert table["series.TruncatedSeries.__mul__"] == [2, 4.0, 4.0]
    assert table["cli._cmd_gamma"] == [1, 10.0, 3.0]


def test_threshold_probes_pass_at_or_above_the_result():
    spans = [["harness.nu_threshold", 0.0, 1.0, -1, {"result": "3/4"}]]
    for nu in ("2", "0", "1", "1/2", "3/4"):
        spans.append(["moments.bernoulli_moments", 0.1, 0.2, 0, {"nu": nu, "bits": 1}])
    metrics = tracer.layer_metrics([{"spans": spans, "caches": {}}], 0)
    assert metrics["harness.threshold.probes"] == 5
    assert metrics["harness.threshold.pass_ratio"] == 3 / 5


def test_end_to_end_scales_each_request_by_its_own_calibration():
    work = workloads.Request("work", ("gamma",))
    probe = workloads.Request("probe", ("gamma",), workloads.USAGE)
    ref = REFERENCE_CAL_S
    # a request timed while the host ran at half speed reads as half its time
    setup = [Result(None, 0, b"", b"", 0.1 * f, 0.1 * f, 1024, ref * f) for f in (1, 2, 4)]
    samples = {
        "work": [Result(work, 0, b"", b"", 2.0 * f, 1.0 * f, 2048, ref * f) for f in (1, 2)],
        "probe": [Result(probe, 1, b"", b"", 0.5, 0.5, 1024, ref) for _ in range(2)],
    }
    metrics, details = end_to_end(samples, setup, 0.5)
    # one cycle is the mean of each request over the cycles: 2.0 + 0.5 s
    assert math.isclose(metrics["wall_s"][0], 2.5)
    assert math.isclose(metrics["cpu_s"][0], 1.5)
    assert math.isclose(details["host_wall_s"], 3.0 + 0.5)
    # the probes count in error_rate only, not in the latencies
    assert math.isclose(metrics["latency_p50_s"][0], 2.0)
    assert details["latency_samples"] == 2
    assert math.isclose(metrics["setup_s"][0], 0.1)
    assert metrics["peak_rss_mb"] == (2.0, "MB")
    assert metrics["error_rate"] == (0.5, "ratio")


class _FakeRunner:
    """Answers every request at once, as if each took one reference second."""

    def __init__(self, slowdown: float):
        self.slowdown = slowdown

    def expired(self) -> bool:
        return False

    def run(self, request) -> Result:
        seconds = 1.0 * self.slowdown
        return Result(request, 0, b"", b"", seconds, seconds, 1024, REFERENCE_CAL_S * self.slowdown)


def test_cycle_count_does_not_change_with_the_host_speed():
    requests = [workloads.Request("a", ("gamma",)), workloads.Request("b", ("gamma",))]
    per_cycle_s = len(requests) + SETUP_PER_CYCLE
    for slowdown in (0.7, 1.0, 1.4):
        samples, setup = measure(_FakeRunner(slowdown), requests, 3.5 * per_cycle_s)
        assert [len(runs) for runs in samples.values()] == [3, 3]
        assert len(setup) == 3 * SETUP_PER_CYCLE
