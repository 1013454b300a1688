"""Tests of the benchmark's own logic: the percentile sample-count rule, the
metric-name grammar, BENCHMARK.json's shape, the metric reductions and the
result line.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(metrics.percentile(xs, 0), 1.0)
        self.assertEqual(metrics.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(metrics.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(metrics.percentile(list(range(101)), 90), 90.0)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([3.0, 1.0, 2.0], 50), 2.0)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_ten_samples_beyond(self):
        self.assertTrue(metrics.supports(100, 90))
        self.assertFalse(metrics.supports(99, 90))
        self.assertTrue(metrics.supports(20, 50))
        self.assertFalse(metrics.supports(19, 50))
        self.assertTrue(metrics.supports(1000, 99))
        self.assertFalse(metrics.supports(999, 99))

    def test_highest_supported_percentile(self):
        self.assertIsNone(metrics.highest_supported_percentile(19))
        self.assertEqual(metrics.highest_supported_percentile(20), 50.0)
        self.assertEqual(metrics.highest_supported_percentile(100), 90.0)
        self.assertEqual(metrics.highest_supported_percentile(200), 95.0)
        self.assertEqual(metrics.highest_supported_percentile(1000), 99.0)
        self.assertEqual(metrics.highest_supported_percentile(10000), 99.9)


class NameGrammar(unittest.TestCase):
    def test_names(self):
        for good in ("setup_s", "a", "0x", "core.pool.idle_frac",
                     "track.cold_start.us_per_user_epoch", "a-b", "x" * 64):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "-lead", "has space", "x" * 65,
                    "slash/no", "ünï"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_units(self):
        for good in ("ms", "s", "1/s", "count", "%", "1", "MB", "us"):
            self.assertTrue(metrics.valid_unit(good), good)
        for bad in ("", "m s", "x" * 17, "µs"):
            self.assertFalse(metrics.valid_unit(bad), bad)


class BenchmarkSpec(unittest.TestCase):
    def test_exact_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_limits(self):
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertLessEqual(len(json.dumps(SPEC)), 64 * 1024)
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertGreater(m["bound"], 0.0)
            self.assertLessEqual(m["bound"], 0.25)

    def test_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(metrics.valid_name(n), n)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(metrics.valid_unit(m["unit"]), m)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in SPEC["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_command_and_paths(self):
        self.assertLessEqual(len(SPEC["command"]), 32)
        for arg in SPEC["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/"))
            self.assertNotIn("..", arg)
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        for p in SPEC["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertTrue((ROOT / p).is_dir())
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         metrics.WORKLOADS)


def synthetic_raw(workload, traced):
    """A small raw record shaped like the driver's output."""
    series = {"setup_s": [0.10, 0.12, 0.11], "first_tick_s": [0.5, 0.6, 0.55]}
    scalars = {"threads": 2, "peak_rss_bytes": 8 * metrics.MB,
               "track_users": 2, "track_epochs": 80}
    lat = [0.05 + 0.001 * i for i in range(120)]
    kinds = len(metrics.TRACKER_KINDS)
    if workload == "align_multipath":
        series.update(request_s=lat, probes_per_op=[123.0] * 120,
                      loss_db=[0.1 * (i % 30) for i in range(400)])
        scalars.update(ops=120, wall_s=5.0, traced_ops=40, traced_wall_s=2.0,
                       untraced_ops=44, untraced_wall_s=2.0, single_ops=24,
                       single_wall_s=2.0)
    elif workload == "serve_city":
        series.update(request_s=lat, tick_live=[30000.0] * 120)
        for p in ("q_", "t_"):
            series.update({p + "live": [30000.0] * 16,
                           p + "arrivals": [1500.0] * 16,
                           p + "aligning": [6000.0] * 16,
                           p + "probes": [48000.0] * 16,
                           p + "tracking": [24000.0] * 16,
                           p + "outages": [90.0] * 16,
                           p + "loss_samples": [24000.0] * 16,
                           p + "mean_loss_db": [3.6] * 16,
                           p + "p90_loss_db": [11.4] * 16})
        series.update(untraced_request_s=lat[:20], traced_request_s=lat[:18],
                      single_request_s=[2 * v for v in lat[:8]],
                      traced_tick_live=[30000.0] * 18)
        scalars.update(wall_s=sum(lat), traced_wall_s=2.0,
                       serve_high_water_bytes=3e6, serve_peak_live=31000.0)
    else:
        series.update(request_s=lat, untraced_request_s=lat[:20],
                      traced_request_s=lat[:19],
                      single_request_s=[1.7 * v for v in lat[:10]])
        for p, n in (("q_", 48), ("t_", 19)):
            series.update({
                p + "handovers_per_user": [2.5] * n,
                p + "kind": [float(k) for k in range(kinds)] * n,
                p + "steady_epochs": [120.0] * (kinds * n),
                p + "mean_loss_db": [4.0] * (kinds * n),
                p + "p90_loss_db": [9.0] * (kinds * n),
                p + "probes_per_epoch": [64.0, 2.0, 1.5, 2.0] * n,
                p + "realign_rate": [1.0, 0.1, 0.2, 0.1] * n})
        scalars.update(user_epochs=120 * 640, wall_s=20.0, traced_ops=19,
                       traced_user_epochs=19 * 640, traced_wall_s=2.0)
        for kind in metrics.TRACKER_KINDS:
            scalars["kind_s_2t." + kind] = 0.05
            scalars["kind_s_1t." + kind] = 0.09
    if traced:
        for name in ("randgen.stream", "randgen.normal", "randgen.uniform",
                     "randgen.complex_normal", "sim.make_link",
                     "channel.evolve", "mac.probe_n64", "mac.probe_n16",
                     "linalg.eig_jacobi_n64", "linalg.eig_jacobi_n16",
                     "linalg.eig_jacobi_n6", "linalg.eig_ql_n64",
                     "antenna.scores_n64", "estimation.beamspace_merge"):
            scalars["probe." + name] = 1e-6
    counters = {"counters": {"estimation.ml.solves": 100,
                             "estimation.ml.nonconverged": 25,
                             "core.pool.busy_us": 900, "core.pool.idle_us": 100,
                             "mac.session.measurements": 4920},
                "histograms": {"estimation.ml.iterations": {"sum": 500.0,
                                                            "count": 100}}}
    return {"series": series, "scalars": scalars, "attempted": 121,
            "failed": 0, "checks_run": 2, "check_failures": [],
            "counters": counters if traced else None}


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


SYNTHETIC_TRACE = [
    span("bench.request", 0, 100), span("bench.make_trial", 0, 10),
    span("bench.align_run", 10, 80), span("core.strategy.slot", 12, 30),
    span("estimation.ml.solve", 15, 20), span("bench.grade", 90, 5),
    span("bench.request", 0, 50, tid=1), span("bench.align_run", 5, 40, tid=1),
    # Same start and duration: the inner span is recorded first.
    span("bench.step_epoch", 200, 30, tid=2), span("bench.request", 200, 30, tid=2),
    {"name": "estimation.ml.nll", "ph": "C", "ts": 16, "tid": 0,
     "args": {"value": 1.0}},
]


class Reductions(unittest.TestCase):
    def test_end_to_end_matches_spec_for_every_workload(self):
        for w in metrics.WORKLOADS:
            out = metrics.end_to_end(w, synthetic_raw(w, traced=False))
            self.assertEqual(metrics.check_against_spec(out, SPEC["end_to_end"]),
                             [], w)
            for name, (value, _) in out.items():
                self.assertGreater(value, 0.0, f"{w} {name} must not be 0")

    def test_per_layer_matches_spec_for_every_workload(self):
        for w in metrics.WORKLOADS:
            out = metrics.per_layer(w, synthetic_raw(w, traced=True),
                                    SYNTHETIC_TRACE)
            self.assertEqual(metrics.check_against_spec(out, SPEC["per_layer"]),
                             [], w)

    def test_align_values(self):
        out = metrics.end_to_end("align_multipath",
                                 synthetic_raw("align_multipath", False))
        self.assertAlmostEqual(out["ops_per_s"][0], 24.0)
        self.assertAlmostEqual(out["request_ms_p50"][0], 109.5)
        self.assertAlmostEqual(out["ok_frac"][0], 1.0)
        self.assertAlmostEqual(out["peak_rss_mb"][0], 8.0)

    def test_serve_throughput_counts_session_steps(self):
        raw = synthetic_raw("serve_city", False)
        out = metrics.end_to_end("serve_city", raw)
        self.assertAlmostEqual(out["ops_per_s"][0],
                               30000.0 * 120 / sum(raw["series"]["request_s"]))
        self.assertAlmostEqual(out["probes_per_op"][0], 72000.0 / 30000.0)

    def test_span_parenting_is_same_thread_containment(self):
        spans, parent = metrics.span_tree(SYNTHETIC_TRACE)
        names = [s["name"] for s in spans]
        solve = names.index("estimation.ml.solve")
        slot = names.index("core.strategy.slot")
        self.assertEqual(parent[solve], slot)
        self.assertEqual(names[parent[slot]], "bench.align_run")
        other = [i for i, s in enumerate(spans) if s["tid"] == 1]
        self.assertEqual(parent[other[1]], other[0])
        self.assertEqual(len(spans), 10)  # the counter event is not a span
        tied = [i for i, s in enumerate(spans) if s["tid"] == 2]
        self.assertEqual(parent[tied[0]], tied[1])

    def test_ledger_coverage(self):
        spans, parent = metrics.span_tree(SYNTHETIC_TRACE)
        # tid 0: 95 of 100 us attributed; tid 1: 40 of 50; tid 2: 30 of 30.
        self.assertAlmostEqual(metrics.ledger_coverage(spans, parent),
                               165.0 / 180.0)


class ResultLine(unittest.TestCase):
    def test_exact_keys_and_types(self):
        line = metrics.result_line({"setup_s": (0.5, "s"),
                                    "ops_per_s": (12, "1/s")}, 10, 0, True)
        text = json.dumps(line)
        back = json.loads(text)
        self.assertEqual(set(back), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertIs(back["correct"], True)
        self.assertIsInstance(back["attempted"], int)
        self.assertIsInstance(back["failed"], int)
        self.assertEqual(back["metrics"]["setup_s"], {"value": 0.5,
                                                      "unit": "s"})
        self.assertIsInstance(back["metrics"]["ops_per_s"]["value"], float)
        self.assertNotIn("\n", text)

    def test_values_keep_all_digits(self):
        v = 0.12345678901234567
        line = json.dumps(metrics.result_line({"x": (v, "s")}, 1, 0, True))
        self.assertEqual(json.loads(line)["metrics"]["x"]["value"], v)

    def test_spec_check_reports_problems(self):
        spec = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
        problems = metrics.check_against_spec(
            {"a": (1.0, "ms"), "c": (math.nan, "s")}, spec)
        self.assertEqual(len(problems), 4)


class CommandLine(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run([sys.executable, str(PERFBENCH / "run.py"), *args],
                              capture_output=True, text=True, cwd=str(ROOT),
                              timeout=60)

    def test_unknown_flag_is_rejected_with_usage(self):
        p = self.run_cli("--workload", "serve_city", "--seed", "1",
                         "--seconds", "1", "--trace", "0", "--bogus")
        self.assertEqual(p.returncode, 2)
        self.assertIn("usage:", p.stderr)
        self.assertEqual(p.stdout, "")

    def test_abbreviations_and_bad_values_are_rejected(self):
        base = ["--seed", "1", "--seconds", "1", "--trace", "0"]
        for args in (["--work", "serve_city", *base],
                     ["--workload", "nope", *base],
                     ["--workload", "serve_city", "--seed", "-1",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", "serve_city", "--seed", "1",
                      "--seconds", "0", "--trace", "0"],
                     ["--workload", "serve_city", "--seed", "1",
                      "--seconds", "1", "--trace", "2"],
                     ["--workload", "serve_city"]):
            p = self.run_cli(*args)
            self.assertEqual(p.returncode, 2, args)
            self.assertIn("usage:", p.stderr, args)


if __name__ == "__main__":
    unittest.main()
