#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe with dune,
measures set-up time (``--trace 0`` only) by starting the program in
set-up-only mode several times, runs the workload, and prints a
provenance line followed by the result line: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Metric names
and units come from BENCHMARK.json. Every result line is also appended,
with its provenance, to perfbench/_out/results.jsonl; ``--trace 1``
writes the run's spans to perfbench/_out/spans-<workload>-<seed>.jsonl.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("dense-corun", "os-preempt", "fuzz-oracle")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = os.path.join("perfbench", "_out")
# Set-up is timed this many times before the measured run and as many
# after it, so its median spans the host's state over the whole run.
SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("lib", "bin", "bench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # For the benchmark's own self-test: a seeded compiler bug
    # (Occamy_check.Fuzz.injections) that the fuzz-oracle check must catch.
    p.add_argument("--inject")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("not the root of an occamy checkout (no dune-project and lib/)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        die("build failed")


def run_exe(args):
    try:
        r = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die("%s took longer than %d s" % (" ".join([EXE] + args),
                                          RUN_TIMEOUT_S))
    if r.returncode != 0:
        die("%s exited with %d" % (" ".join([EXE] + args), r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("no output from " + EXE)
    return json.loads(lines[-1])


def setup_times(exe_args):
    """Set-up times of fresh processes that set the workload up and exit.

    Each reports its own CPU time from its start through set-up, scaled
    to the nominal host speed like the program's end-to-end timings (see
    NOTES.md)."""
    return [run_exe(exe_args + ["--setup-only"])["setup_s"]
            for _ in range(SETUP_REPEATS)]


def source_files():
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(d):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(base, f)


def provenance(args, raw, run_index):
    digest = hashlib.sha1()
    lines = 0
    for path in source_files():
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "none"
    if os.path.exists(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_commit": commit,
        "source_sha1": digest.hexdigest(),
        "loc_lib_bin_bench": lines,
        "nproc": os.cpu_count(),
        "ocaml_version": raw.get("info.ocaml_version"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_index": run_index,
        "samples": raw.get("info.samples"),
        "info": {k[5:]: v for k, v in raw.items()
                 if k.startswith("info.")
                 and k not in ("info.ocaml_version", "info.samples")},
    }


def declared(trace):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def next_run_index(path, workload):
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for line in fh
                   if json.loads(line)["provenance"]["workload"] == workload)


def main(argv):
    args = parse_args(argv)
    specs = declared(args.trace)
    build()
    os.makedirs(OUT, exist_ok=True)
    exe_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject is not None:
        exe_args += ["--inject", args.inject]
    if args.trace:
        exe_args += ["--spans", os.path.join(
            OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
        raw = run_exe(exe_args)
    else:
        before = setup_times(exe_args)
        raw = run_exe(exe_args)
        raw["setup_s"] = statistics.median(before + setup_times(exe_args))
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in raw:
            die("metric %s missing from the program's output" % name)
        metrics[name] = {"value": raw[name], "unit": spec["unit"]}
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    log = os.path.join(OUT, "results.jsonl")
    prov = provenance(args, raw, next_run_index(log, args.workload))
    with open(log, "a") as fh:
        fh.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
