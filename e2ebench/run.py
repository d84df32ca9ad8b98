#!/usr/bin/env python3
"""End-to-end Engine::Submit benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds e2ebench/ (CMake, Release) into
.bench_build/e2ebench on first use, runs one workload of BENCHMARK.json and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"<name>": {"value": ..., "unit": ...}, ...}}

--trace 0 reports the end-to-end metrics; --trace 1 replays the workload
with spans around every layer call and reports the per-layer metrics. The
spans are turned into per-layer self times here, outside the program.
A wrong answer makes the command exit non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_submit")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        log("no library sources under %s/src; run from a full checkout" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


# --- spans -------------------------------------------------------------------


def load_spans(path):
    spans = []
    with open(path) as f:
        header = f.readline().split()
        for line in f:
            fields = dict(zip(header, line.split()))
            spans.append({
                "id": int(fields["id"]),
                "parent": int(fields["parent"]),
                "request": int(fields["request"]),
                "layer": fields["layer"],
                "attr": fields["attr"],
                "start": int(fields["start_ns"]),
                "end": int(fields["end_ns"]),
            })
    return spans


def check_spans(spans):
    """Raises ValueError unless every span is well formed and nests inside
    its parent (same request id, start and end within the parent's)."""
    by_id = {s["id"]: s for s in spans}
    if len(by_id) != len(spans):
        raise ValueError("duplicate span ids")
    for s in spans:
        if s["end"] < s["start"]:
            raise ValueError("span %d ends before it starts" % s["id"])
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            raise ValueError("span %d has no parent %d" % (s["id"], s["parent"]))
        if parent["request"] != s["request"]:
            raise ValueError("span %d and its parent differ in request" % s["id"])
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise ValueError("span %d is not inside its parent %d"
                             % (s["id"], parent["id"]))


def self_times(spans):
    """Span id -> duration minus the part of it its children cover (ns)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def layer_metrics(spans, counters):
    """Per-layer timing metrics from the spans of a traced run."""
    check_spans(spans)
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def selected(layer, under=None, attr=None):
        return [own[s["id"]] for s in spans
                if s["layer"] == layer
                and (under is None
                     or by_id.get(s["parent"], {}).get("layer") == under)
                and (attr is None or s["attr"] == attr)]

    def mean(values, scale):
        return statistics.fmean(values) * scale if values else 0.0

    def per_entry(layer, entries):
        return sum(selected(layer)) / entries if entries > 0 else 0.0

    ns_to_ms = 1e-6
    spec = mean(selected("pulltopk", attr="Spec-QP"), ns_to_ms)
    trinit = mean(selected("pulltopk", attr="TriniT"), ns_to_ms)
    opens = selected("open")
    return {
        "query.parse_us": mean(selected("parse"), 1e-3),
        "plan.warm_ms": mean(selected("explain"), ns_to_ms),
        "plan.cold_ms": mean(selected("explain_cold"), ns_to_ms),
        "stats.warm_ms": mean(selected("warm"), ns_to_ms),
        "build.ms": mean(selected("build", under="request"), ns_to_ms),
        "exec.ms": mean(selected("pulltopk", under="request"), ns_to_ms),
        "exec.spec_over_trinit": spec / trinit if trinit > 0 else 0.0,
        "store.open_ms": statistics.median(opens) * ns_to_ms if opens else 0.0,
        "blocks.decode_ns_per_entry":
            per_entry("block_scan", counters["_block_scan_entries"]),
        "flat.scan_ns_per_entry":
            per_entry("flat_scan", counters["_flat_scan_entries"]),
    }


# --- running -------------------------------------------------------------------


def git_sha():
    for var in ("SPECQP_GIT_SHA", "GITHUB_SHA"):
        if os.environ.get(var):
            return os.environ[var]
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return "unknown"


def assemble(raw, spans_path, declared):
    """The final metrics: raw counters plus span-derived timings, exactly the
    declared names, each with its unit."""
    counters = dict(raw["metrics"])
    if spans_path is not None:
        counters.update(layer_metrics(load_spans(spans_path), counters))
    counters = {k: v for k, v in counters.items() if not k.startswith("_")}
    names = {m["name"]: m["unit"] for m in declared}
    if set(counters) != set(names):
        missing = sorted(set(names) - set(counters))
        extra = sorted(set(counters) - set(names))
        raise ValueError("metric names differ from BENCHMARK.json: missing %s, "
                         "extra %s" % (missing, extra))
    return {name: {"value": counters[name], "unit": names[name]}
            for name in sorted(names)}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        benchmark = load_benchmark()
    except (OSError, ValueError) as e:
        log("cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2
    if not build():
        return 1

    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(BUILD_DIR))
    try:
        spans = os.path.join(workdir, "spans.txt") if args.trace else None
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--workdir", workdir]
        if spans is not None:
            command += ["--spans", spans]
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
        lines = [l for l in done.stdout.splitlines() if l.strip()]
        results = [json.loads(l) for l in lines if l.startswith("{\"correct\"")]
        environments = [json.loads(l)["environment"] for l in lines
                        if l.startswith("{\"environment\"")]
        if not results:
            log("e2e_submit exited with %d and no result" % done.returncode)
            return 1
        raw = results[-1]
        metrics = {}
        if done.returncode == 0:
            declared = benchmark["per_layer" if args.trace else "end_to_end"]
            metrics = assemble(raw, spans, declared)
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    environment = environments[-1] if environments else {}
    environment["git_sha"] = git_sha()
    print(json.dumps({"environment": environment}))
    print(json.dumps({"correct": bool(raw["correct"]) and done.returncode == 0,
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
