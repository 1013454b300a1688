"""Reduction of the driver's raw measurements to the named benchmark metrics.

The C++ driver (perfbench/driver) only measures: latencies, counts, engine
outputs, probe costs, and in the traced run an obs counter snapshot plus a
Chrome trace. Everything BENCHMARK.json names is computed here, from that
raw record, so each definition lives in one place and is unit-tested.

Vocabulary used by the definitions below:
  request  what a closed-loop client waits on: one alignment
           (align_multipath), one ServingEngine::step_epoch() tick
           (serve_city), one run_tracking() call (track_mobile);
  op       the unit of work: one alignment, one session-step (a live
           session advanced one epoch), one user-epoch (one tracker
           following one user for one epoch).
"""

import math
import re
import statistics
from collections import defaultdict

WORKLOADS = ("align_multipath", "serve_city", "track_mobile")
TRACKER_KINDS = ("cold_start", "warm_ml", "neighborhood", "bandit_ucb")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

# A percentile is reported only where at least this many samples lie beyond
# it, so the value is not set by a handful of outliers.
MIN_SAMPLES_BEYOND = 10
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

MB = 1024.0 * 1024.0


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def percentile(samples, p):
    """The p-th percentile (0-100) with linear interpolation between the
    closest ranks (the common "type 7" definition)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """Expected number of the n samples that lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def supports(n, p):
    """True when n samples hold at least MIN_SAMPLES_BEYOND beyond p."""
    return samples_beyond(n, p) >= MIN_SAMPLES_BEYOND - 1e-9


def highest_supported_percentile(n):
    """The highest ladder percentile that n samples support, or None."""
    best = None
    for p in PERCENTILE_LADDER:
        if supports(n, p):
            best = p
    return best


def _ratio(num, den):
    return num / den if den else 0.0


def _weighted_mean(values, weights):
    return _ratio(sum(v * w for v, w in zip(values, weights)), sum(weights))


def _counter(raw, name):
    counters = (raw.get("counters") or {}).get("counters", {})
    return float(counters.get(name, 0))


def _histogram_mean(raw, name):
    hist = (raw.get("counters") or {}).get("histograms", {}).get(name)
    return _ratio(hist["sum"], hist["count"]) if hist else 0.0


def _prefix_sum_ratio(a, b):
    """sum(a[:k]) / sum(b[:k]) over the common prefix of two latency lists."""
    k = min(len(a), len(b))
    return _ratio(sum(a[:k]), sum(b[:k]))


# --------------------------------------------------------------------------
# End-to-end metrics (untraced run)
# --------------------------------------------------------------------------

def _track_per_request(series, prefix, field):
    """Steady-epoch-weighted mean of `field` over the trackers of each
    request, one value per request."""
    kinds = len(TRACKER_KINDS)
    values, weights = series[prefix + field], series[prefix + "steady_epochs"]
    return [_weighted_mean(values[i:i + kinds], weights[i:i + kinds])
            for i in range(0, len(values), kinds)]


def end_to_end(workload, raw):
    """Returns {name: (value, unit)} for every end-to-end metric."""
    s, x = raw["series"], raw["scalars"]
    latencies = s["request_s"]
    if workload == "align_multipath":
        ops_per_s = _ratio(x["ops"], x["wall_s"])
        loss = s["loss_db"]
        loss_mean, loss_p90 = statistics.fmean(loss), percentile(loss, 90)
        probes = statistics.fmean(s["probes_per_op"])
    elif workload == "serve_city":
        ops_per_s = _ratio(sum(s["tick_live"]), sum(latencies))
        loss_mean = _weighted_mean(s["q_mean_loss_db"], s["q_loss_samples"])
        loss_p90 = statistics.median(s["q_p90_loss_db"])
        probes = _ratio(sum(s["q_probes"]) + sum(s["q_tracking"]),
                        sum(s["q_live"]))
    elif workload == "track_mobile":
        ops_per_s = _ratio(x["user_epochs"], x["wall_s"])
        loss_mean = _weighted_mean(s["q_mean_loss_db"], s["q_steady_epochs"])
        loss_p90 = statistics.median(
            _track_per_request(s, "q_", "p90_loss_db"))
        probes = _weighted_mean(s["q_probes_per_epoch"], s["q_steady_epochs"])
    else:
        raise ValueError("unknown workload " + workload)
    attempted = raw["attempted"]
    return {
        "setup_s": (statistics.median(s["setup_s"]), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "request_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
        "request_ms_p90": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (x["peak_rss_bytes"] / MB, "MB"),
        "loss_db_mean": (loss_mean, "dB"),
        "loss_db_p90": (loss_p90, "dB"),
        "probes_per_op": (probes, "1"),
        "ok_frac": (_ratio(attempted - raw["failed"], attempted), "1"),
    }


# --------------------------------------------------------------------------
# Trace handling (traced run)
# --------------------------------------------------------------------------

def span_tree(events):
    """Complete ('X') spans with their parent index, parented by same-thread
    containment: a span's parent is the innermost span on the same tid whose
    interval contains it."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_tid = defaultdict(list)
    for i, e in enumerate(spans):
        by_tid[e["tid"]].append(i)
    parent = [None] * len(spans)
    for idx in by_tid.values():
        # Outer first; on equal (start, duration) the later-recorded span is
        # the outer one, since a span is recorded when it ends.
        idx.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"], -i))
        stack = []
        for i in idx:
            end = spans[i]["ts"] + spans[i]["dur"]
            # Sorted by start, so the innermost open span that ends no
            # earlier than this one contains it.
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] < end:
                stack.pop()
            parent[i] = stack[-1] if stack else None
            stack.append(i)
    return spans, parent


def durations_by_name(spans):
    out = defaultdict(list)
    for e in spans:
        out[e["name"]].append(float(e["dur"]))
    return out


def ledger_coverage(spans, parent, op_span="bench.request"):
    """Time inside direct children of the op spans ÷ op span time."""
    op_total = 0.0
    covered = 0.0
    ops = set()
    for i, e in enumerate(spans):
        if e["name"] == op_span:
            ops.add(i)
            op_total += e["dur"]
    for i, p in enumerate(parent):
        if p in ops:
            covered += spans[i]["dur"]
    return _ratio(covered, op_total)


# --------------------------------------------------------------------------
# Per-layer metrics (traced run)
# --------------------------------------------------------------------------

def _traced_counts(workload, raw):
    """(ops, requests) completed in the traced window."""
    s, x = raw["series"], raw["scalars"]
    if workload == "align_multipath":
        return x["traced_ops"], x["traced_ops"]
    if workload == "serve_city":
        return sum(s["traced_tick_live"]), len(s["traced_request_s"])
    return x["traced_user_epochs"], x["traced_ops"]


def per_layer(workload, raw, events):
    """Returns {name: (value, unit)} for every per-layer metric. Metrics of a
    layer the workload never enters read 0."""
    s, x = raw["series"], raw["scalars"]
    spans, parent = span_tree(events)
    dur = durations_by_name(spans)
    ops, requests = _traced_counts(workload, raw)
    threads = x["threads"]
    thread_us = threads * x["traced_wall_s"] * 1e6
    probe = {k[len("probe."):]: v for k, v in x.items()
             if k.startswith("probe.")}
    is_align = workload == "align_multipath"
    is_serve = workload == "serve_city"
    is_track = workload == "track_mobile"

    def span_pct(name, p):
        d = dur.get(name, [])
        return percentile(d, p) / 1e3 if d else 0.0

    m = {}

    # sim
    m["sim.make_trial_ms"] = (span_pct("bench.make_trial", 50), "ms")
    m["sim.make_trial_share"] = (
        _ratio(sum(dur.get("bench.make_trial", [])),
               sum(dur.get("bench.request", []))) if is_align else 0.0, "1")
    m["sim.make_link_us"] = (probe["sim.make_link"] * 1e6, "us")

    # core
    pool_busy = _counter(raw, "core.pool.busy_us")
    pool_idle = _counter(raw, "core.pool.idle_us")
    if is_align:
        speedup = _ratio(_ratio(x["untraced_ops"], x["untraced_wall_s"]),
                         _ratio(x["single_ops"], x["single_wall_s"]))
        overhead = 1.0 - _ratio(
            _ratio(x["traced_ops"], x["traced_wall_s"]),
            _ratio(x["untraced_ops"], x["untraced_wall_s"]))
    else:
        speedup = _prefix_sum_ratio(s["single_request_s"],
                                    s["untraced_request_s"])
        overhead = 1.0 - _prefix_sum_ratio(s["untraced_request_s"],
                                           s["traced_request_s"])
    m["core.align_run_ms"] = (span_pct("bench.align_run", 50), "ms")
    m["core.strategy.slots_per_op"] = (
        _ratio(_counter(raw, "core.strategy.slots"), ops), "1")
    m["core.strategy.slot_ms_p50"] = (span_pct("core.strategy.slot", 50), "ms")
    m["core.pool.idle_frac"] = (_ratio(pool_idle, pool_busy + pool_idle), "1")
    m["core.pool.tasks_per_request"] = (
        _ratio(_counter(raw, "core.pool.tasks"), requests), "1")
    m["core.speedup_2v1"] = (speedup, "1")

    # estimation
    solves = _counter(raw, "estimation.ml.solves")
    m["estimation.ml.solve_ms_p50"] = (span_pct("estimation.ml.solve", 50),
                                       "ms")
    m["estimation.ml.solve_ms_p99"] = (span_pct("estimation.ml.solve", 99),
                                       "ms")
    m["estimation.ml.share"] = (
        _ratio(sum(dur.get("estimation.ml.solve", [])), thread_us), "1")
    m["estimation.ml.solves_per_op"] = (_ratio(solves, ops), "1")
    m["estimation.ml.iterations_per_solve"] = (
        _histogram_mean(raw, "estimation.ml.iterations"), "1")
    m["estimation.ml.backtracks_per_solve"] = (
        _ratio(_counter(raw, "estimation.ml.backtracks"), solves), "1")
    m["estimation.nll_evals_per_solve"] = (
        _ratio(_counter(raw, "estimation.nll_evals"), solves), "1")
    m["estimation.ml.nonconverged_frac"] = (
        _ratio(_counter(raw, "estimation.ml.nonconverged"), solves), "1")
    m["estimation.beamspace_merge_us"] = (
        probe["estimation.beamspace_merge"] * 1e6, "us")

    # linalg
    m["linalg.eig.jacobi_calls_per_op"] = (
        _ratio(_counter(raw, "linalg.eig.jacobi_calls"), ops), "1")
    m["linalg.eig.jacobi_sweeps_per_call"] = (
        _histogram_mean(raw, "linalg.eig.jacobi_sweeps"), "1")
    m["linalg.eig.ql_calls_per_op"] = (
        _ratio(_counter(raw, "linalg.eig.ql_calls"), ops), "1")
    m["linalg.eig_jacobi_ms_n64"] = (probe["linalg.eig_jacobi_n64"] * 1e3, "ms")
    m["linalg.eig_ql_ms_n64"] = (probe["linalg.eig_ql_n64"] * 1e3, "ms")
    m["linalg.eig_jacobi_us_n16"] = (probe["linalg.eig_jacobi_n16"] * 1e6, "us")
    m["linalg.eig_jacobi_us_n6"] = (probe["linalg.eig_jacobi_n6"] * 1e6, "us")

    # antenna
    m["antenna.scored_codewords_per_op"] = (
        _ratio(_counter(raw, "antenna.codebook.scored_codewords"), ops), "1")
    m["antenna.scores_us_n64"] = (probe["antenna.scores_n64"] * 1e6, "us")

    # mac: probe calls in the traced window times the probe's unit cost, as
    # a share of the window's thread time. Computed, not a measured span.
    if is_align:
        probe_calls, probe_cost = (_counter(raw, "mac.session.measurements"),
                                   probe["mac.probe_n64"])
    elif is_serve:
        probe_calls, probe_cost = sum(s["t_probes"]), probe["mac.probe_n16"]
    else:
        probe_calls, probe_cost = (_counter(raw, "track.probes"),
                                   probe["mac.probe_n16"])
    m["mac.measurements_per_op"] = (
        _ratio(_counter(raw, "mac.session.measurements"), ops), "1")
    m["mac.probe_us_n64"] = (probe["mac.probe_n64"] * 1e6, "us")
    m["mac.probe_us_n16"] = (probe["mac.probe_n16"] * 1e6, "us")
    m["mac.probe_share_computed"] = (
        _ratio(probe_calls * probe_cost * 1e6, thread_us), "1")

    # channel, randgen
    m["channel.evolve_us"] = (probe["channel.evolve"] * 1e6, "us")
    m["randgen.stream_us"] = (probe["randgen.stream"] * 1e6, "us")
    m["randgen.normal_ns"] = (probe["randgen.normal"] * 1e9, "ns")
    m["randgen.uniform_ns"] = (probe["randgen.uniform"] * 1e9, "ns")
    m["randgen.complex_normal_ns"] = (probe["randgen.complex_normal"] * 1e9,
                                      "ns")

    # serve
    if is_serve:
        live, tracking = sum(s["t_live"]), sum(s["t_tracking"])
        m["serve.epoch_ms_first"] = (
            statistics.median(s["first_tick_s"]) * 1e3, "ms")
        m["serve.align_slots_per_step"] = (_ratio(sum(s["t_aligning"]), live),
                                           "1")
        m["serve.arrivals_per_epoch"] = (statistics.fmean(s["t_arrivals"]), "1")
        m["serve.tracking_frac"] = (_ratio(tracking, live), "1")
        m["serve.outage_frac"] = (_ratio(sum(s["t_outages"]), tracking), "1")
        m["serve.pool_high_water_mb"] = (x["serve_high_water_bytes"] / MB, "MB")
        m["serve.bytes_per_session"] = (
            _ratio(x["serve_high_water_bytes"], x["serve_peak_live"]), "B")
    else:
        for name, unit in (("serve.epoch_ms_first", "ms"),
                           ("serve.align_slots_per_step", "1"),
                           ("serve.arrivals_per_epoch", "1"),
                           ("serve.tracking_frac", "1"),
                           ("serve.outage_frac", "1"),
                           ("serve.pool_high_water_mb", "MB"),
                           ("serve.bytes_per_session", "B")):
            m[name] = (0.0, unit)

    # track
    user_epochs = x.get("track_users", 0) * x.get("track_epochs", 0)
    for k, kind in enumerate(TRACKER_KINDS):
        if is_track:
            t2, t1 = x["kind_s_2t." + kind], x["kind_s_1t." + kind]
            rows = [i for i, v in enumerate(s["t_kind"]) if v == k]
            ppe = _weighted_mean([s["t_probes_per_epoch"][i] for i in rows],
                                 [s["t_steady_epochs"][i] for i in rows])
            m[f"track.{kind}.us_per_user_epoch"] = (
                _ratio(t2, user_epochs) * 1e6, "us")
            m[f"track.{kind}.speedup_2v1"] = (_ratio(t1, t2), "1")
            m[f"track.{kind}.probes_per_epoch"] = (ppe, "1")
        else:
            m[f"track.{kind}.us_per_user_epoch"] = (0.0, "us")
            m[f"track.{kind}.speedup_2v1"] = (0.0, "1")
            m[f"track.{kind}.probes_per_epoch"] = (0.0, "1")
    if is_track:
        m["track.handovers_per_user"] = (
            statistics.fmean(s["t_handovers_per_user"]), "1")
        m["track.realign_frac"] = (
            _weighted_mean(s["t_realign_rate"], s["t_steady_epochs"]), "1")
    else:
        m["track.handovers_per_user"] = (0.0, "1")
        m["track.realign_frac"] = (0.0, "1")

    # obs
    m["obs.trace_overhead_frac"] = (overhead, "1")
    m["obs.ledger_coverage"] = (ledger_coverage(spans, parent), "1")
    return m


# --------------------------------------------------------------------------
# The result line
# --------------------------------------------------------------------------

def result_line(metrics, attempted, failed, correct):
    """The benchmark's last stdout line: exactly correct, attempted, failed
    and metrics, each metric as {"value": number, "unit": unit}."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in metrics.items()},
    }


def check_against_spec(metrics, spec_metrics):
    """Problems (as strings) between computed metrics and a BENCHMARK.json
    metric list: missing or extra names, unit mismatches, non-finite
    values."""
    problems = []
    want = {m["name"]: m["unit"] for m in spec_metrics}
    for name in want:
        if name not in metrics:
            problems.append("missing metric " + name)
    for name, (value, unit) in metrics.items():
        if name not in want:
            problems.append("metric not in BENCHMARK.json: " + name)
        elif unit != want[name]:
            problems.append(f"unit of {name} is {unit}, spec says {want[name]}")
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
    return problems
