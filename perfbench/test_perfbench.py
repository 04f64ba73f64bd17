#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. Measures for one second per run, but
every run takes the benchmark's own unit sets (a trace-0 dense-corun run
finishes a whole pass of its 116 simulations, a traced run takes all of
its units), so the whole file takes two to five minutes on two cores.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("dense-corun", "os-preempt", "fuzz-oracle")

# Counts that depend only on the inputs, never on the machine.
DETERMINISTIC = (
    "sim.runs", "sim.cycles", "sim.stepped_cycles", "sim.skip_ratio",
    "sim.ff_jumps", "sim.issue_checks", "sim.issues", "sim.issue_yield",
    "sim.retire_calls", "sim.retired", "sim.retire_yield",
    "lanemgr.replans", "lanemgr.reconfigs", "lanemgr.failed_vl_requests",
    "lanemgr.vl_grant_ratio", "coproc.rename_stall_cycles",
    "coproc.reconfig_blocked_cycles", "mem.accesses", "mem.bytes",
    "interp.runs", "interp.instrs", "compile.calls", "check.cases",
    "pool.tasks", "preempt.defect_schedules",
)


def bench():
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run(workload, seed=1, trace=0, seconds=1, inject=None, cwd=None):
    args = RUN + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    if inject is not None:
        args += ["--inject", inject]
    r = subprocess.run(args, capture_output=True, text=True, cwd=cwd,
                       timeout=600)
    if r.returncode != 0:
        raise AssertionError("run.py failed (%d): %s" % (r.returncode,
                                                        r.stderr[-2000:]))
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


_cache = {}


def cached(workload, seed=1, trace=0):
    key = (workload, seed, trace)
    if key not in _cache:
        _cache[key] = run(workload, seed=seed, trace=trace)
    return _cache[key]


class Declaration(unittest.TestCase):
    def test_names_and_units(self):
        b = bench()
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in b[k]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for k in ("end_to_end", "per_layer"):
            for m in b[k]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))


class Output(unittest.TestCase):
    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_metric_on_every_workload(self):
        b = bench()
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    prov, result = cached(w, trace=trace)
                    self.check_metrics(result, b[key])
                    self.assertTrue(result["correct"])
                    for k in ("git_commit", "nproc", "ocaml_version", "seed",
                              "run_index", "loc_lib_bin_bench"):
                        self.assertIn(k, prov)

    def test_pool_runs_traced_fuzz_cases(self):
        prov, result = cached("fuzz-oracle", trace=1)
        self.assertEqual(prov["info"]["workers"],
                         min(2, os.cpu_count()))
        self.assertEqual(result["metrics"]["pool.tasks"]["value"],
                         prov["info"]["units"])

    def test_no_failures(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = cached(w)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1)

    def test_preemption_defect_is_reported(self):
        """os-preempt draws schedules that trip the known defect and
        reports them on every run, traced or not, for the same seed."""
        prov, _ = cached("os-preempt")
        _, traced = cached("os-preempt", trace=1)
        self.assertGreater(prov["info"]["defect_schedules"], 0)
        self.assertEqual(
            traced["metrics"]["preempt.defect_schedules"]["value"],
            prov["info"]["defect_schedules"])
        for w in ("dense-corun", "fuzz-oracle"):
            self.assertEqual(cached(w)[0]["info"]["defect_schedules"], 0)


class Determinism(unittest.TestCase):
    def counters(self, workload, seed):
        _, result = cached(workload, seed=seed, trace=1)
        return {k: result["metrics"][k]["value"] for k in DETERMINISTIC}

    def test_same_seed_same_counters(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                again = run(w, seed=1, trace=1)[1]
                self.assertEqual(
                    self.counters(w, 1),
                    {k: again["metrics"][k]["value"] for k in DETERMINISTIC})

    def test_seed_changes_generated_inputs_only(self):
        self.assertEqual(self.counters("dense-corun", 1),
                         self.counters("dense-corun", 2))
        for w in ("os-preempt", "fuzz-oracle"):
            with self.subTest(workload=w):
                self.assertNotEqual(self.counters(w, 1)["sim.cycles"],
                                    self.counters(w, 2)["sim.cycles"])

    def test_fidelity_is_deterministic(self):
        a = cached("os-preempt", seed=1)[1]["metrics"]
        b = cached("os-preempt", seed=2)[1]["metrics"]
        for k in ("fidelity_fig10_err", "fidelity_fig11_err"):
            self.assertEqual(a[k]["value"], b[k]["value"])


class Spans(unittest.TestCase):
    # The benchmark's own spans: the traced pass, one simulation, one fuzz
    # case. Every other span wraps one call into the library.
    GLUE = {"bench.traced", "run", "diff.case"}

    def test_library_spans_account_for_untraced_time(self):
        """The library calls' self times add up to the untraced pass's
        wall time, within the tracing overhead the run reports: a span
        that missed or double-counted part of its call would break it."""
        for w in WORKLOADS:
            with self.subTest(workload=w):
                prov, _ = cached(w, trace=1)
                path = os.path.join("perfbench", "_out",
                                    "spans-%s-1.jsonl" % w)
                with open(path) as fh:
                    spans = [json.loads(line) for line in fh]
                by_id = {s["span"]: s for s in spans}
                root = [s for s in spans if s["name"] == "bench.traced"][0]

                def under_root(s):
                    while s["parent"] != -1:
                        s = by_id[s["parent"]]
                    return s is root

                tree = [s for s in spans if under_root(s)]
                for s in tree:
                    if s is not root:
                        p = by_id[s["parent"]]
                        self.assertGreaterEqual(s["start_ns"], p["start_ns"])
                        self.assertLessEqual(s["end_ns"], p["end_ns"])
                # Concurrent fuzz cases on pool workers share the wall
                # clock; a sequential run's share is its plain self time.
                key = "self_share_ns" if prov["info"]["workers"] > 1 \
                    else "self_ns"
                library = sum(s[key] for s in tree
                              if s["name"] not in self.GLUE) / 1e9
                untraced = prov["info"]["untraced_s"]
                traced = prov["info"]["traced_s"]
                self.assertLessEqual(library, traced)
                self.assertLessEqual(abs(library - untraced),
                                     abs(traced - untraced) + 0.05 * untraced)


class Checks(unittest.TestCase):
    def test_seeded_bug_is_caught(self):
        _, result = run("fuzz-oracle", seconds=1, inject="stencil-off-by-one")
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)
        self.assertFalse(result["correct"])

    def test_refuses_bad_arguments(self):
        r = subprocess.run(RUN + ["--workload", "nope", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                           capture_output=True)
        self.assertNotEqual(r.returncode, 0)

    def test_fails_without_the_library(self):
        room = os.path.join("perfbench", "_out", "bare")
        shutil.rmtree(room, ignore_errors=True)
        os.makedirs(room)
        shutil.copy("BENCHMARK.json", room)
        shutil.copytree("perfbench", os.path.join(room, "perfbench"),
                        ignore=shutil.ignore_patterns("_out"))
        r = subprocess.run(RUN[:1] + ["perfbench/run.py", "--workload",
                                      "os-preempt", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True, cwd=room,
                           timeout=180)
        shutil.rmtree(room)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
