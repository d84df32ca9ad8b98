#!/usr/bin/env python3
"""A/B runner for the end-to-end benchmark: alternating pairs of two commits.

Usage:
    ab_bench.py --base REV --head REV --workload NAME --out RESULT.json
                [--pairs 10] [--seed 1] [--seconds 45] [--trace 0|1]
                [--workdir DIR] [--keep-worktrees]
    ab_bench.py --self-test

Checks out BASE and HEAD with ``git worktree add`` under --workdir (a
fresh temporary directory by default; a worktree already there at the same
commit is reused, with its benchmark build) and runs

    python3 e2ebench/run.py --workload NAME --seed S --seconds T --trace X

unchanged in each, for --pairs pairs. Pair i uses seed --seed + i on both
sides, and the side that runs first flips every pair (base first on even
pairs), so a drift of the machine's speed falls on both sides alike. Both
benchmark binaries are built before the first pair, outside the timed
runs.

RESULT.json holds every run and, per metric the runs report, each side's
samples, median, quartiles and interquartile range (IQR), the pair-by-pair
wins, losses and ties of HEAD, and two verdicts, with the direction
("better") and bound taken from BENCHMARK.json:

  * ``gain``: HEAD won at least nine tenths of all pairs run (ties count
    for neither side, a failed run loses its pair) and the medians differ
    in HEAD's favour by more than the base's IQR;
  * ``bound``: ``worse`` when HEAD's median is worse than the base's by
    more than the metric's bound (relative to the base median);
    ``unresolved`` when either side's IQR, relative to the base median,
    is wider than the bound, unless every HEAD run reads better than
    every base run; ``within`` otherwise. Metrics without a declared
    bound (the per-layer ones) read ``unbounded``.

Two values tie when they differ by at most TIE_RTOL of the larger
magnitude, so a metric that only moves in its last digits (a ratio summed
in a different order) reads as ties, not wins or losses; a gain also
needs its median edge to clear that tolerance.

Noise stamps: scripts/memory_latency_probe.cc is compiled once into the
workdir and run before and after every benchmark run; each run stores
``stamp_ns: [before, after]``, the probe's nanoseconds per dependent load
over 8 MiB. A pair whose four stamps spread by more than STAMP_RATIO
(max/min) is flagged: the host's memory latency moved during it. Flagged
pairs are listed in the verdict and the final log line, but every pair
still counts toward every verdict; nothing is rerun or dropped. When the
probe does not compile, runs go unstamped and the JSON says why.

The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished. ``--self-test`` checks the statistics, the stamp flags
and the run order on synthetic samples and exits non-zero on any
mismatch.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WIN_SHARE = 0.9
# Relative difference at or below which two values tie.
TIE_RTOL = 1e-12
# A pair is flagged when max/min of its four noise stamps exceeds this.
STAMP_RATIO = 1.5


def log(message):
    print("[ab_bench] " + message, file=sys.stderr, flush=True)


# --- statistics -----------------------------------------------------------------


def quartiles(samples):
    """(q1, median, q3) of a non-empty sample, inclusive method."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def describe(samples):
    if not samples:
        return {"samples": [], "median": None, "q1": None, "q3": None,
                "iqr": None}
    q1, median, q3 = quartiles(samples)
    return {"samples": samples, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def same(a, b):
    """True when `a` and `b` differ only within TIE_RTOL."""
    return abs(a - b) <= TIE_RTOL * max(abs(a), abs(b))


def summarize_metric(pairs, better, bound):
    """Summary of one metric over `pairs`, a list of (base, head) values
    (None for a failed run or a missing metric)."""
    sign = 1.0 if better == "higher" else -1.0  # > 0 means HEAD is better
    wins = losses = ties = 0
    for base, head in pairs:
        if base is None or head is None:
            losses += head is None and base is not None
            wins += base is None and head is not None
            continue
        edge = sign * (head - base)
        if same(base, head):
            ties += 1
        elif edge > 0:
            wins += 1
        else:
            losses += 1
    base_side = describe([b for b, _ in pairs if b is not None])
    head_side = describe([h for _, h in pairs if h is not None])
    summary = {"better": better, "bound": bound, "base": base_side,
               "head": head_side, "wins": wins, "losses": losses,
               "ties": ties, "pairs": len(pairs), "gain": False,
               "median_change": None, "bound_verdict": "unbounded"}
    if base_side["median"] is None or head_side["median"] is None:
        summary["bound_verdict"] = "missing"
        return summary
    base_median = base_side["median"]
    head_median = head_side["median"]
    edge = sign * (head_median - base_median)
    summary["gain"] = (wins >= WIN_SHARE * len(pairs) and
                       edge > base_side["iqr"] and
                       not same(base_median, head_median))
    scale = abs(base_median)
    if scale > 0:
        summary["median_change"] = (head_median - base_median) / scale
    if bound is None:
        return summary
    if scale == 0:
        summary["bound_verdict"] = "within" if edge >= 0 else "worse"
        return summary
    worse_by = -edge / scale
    spread = max(base_side["iqr"], head_side["iqr"]) / scale
    separated = (min(sign * h for h in head_side["samples"]) >
                 max(sign * b for b in base_side["samples"]))
    if worse_by > bound:
        summary["bound_verdict"] = "worse"
    elif spread > bound and not separated:
        summary["bound_verdict"] = "unresolved"
    else:
        summary["bound_verdict"] = "within"
    return summary


def summarize(runs, declared):
    """Per-metric summaries of `runs` (one {"base": run, "head": run} per
    pair; a run is None or has a "metrics" dict of name -> value).
    `declared` maps a metric name to (better, bound)."""
    names = []
    for pair in runs:
        for side in ("base", "head"):
            run = pair[side]
            for name in (run or {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
    metrics = {}
    for name in names:
        better, bound = declared.get(name, ("lower", None))
        pairs = []
        for pair in runs:
            values = []
            for side in ("base", "head"):
                run = pair[side]
                ok = run is not None and run.get("ok", False)
                values.append(run["metrics"].get(name) if ok else None)
            pairs.append(tuple(values))
        metrics[name] = summarize_metric(pairs, better, bound)
    verdict = {
        "gains": [n for n, m in metrics.items() if m["gain"]],
        "worse": [n for n, m in metrics.items()
                  if m["bound_verdict"] == "worse"],
        "unresolved": [n for n, m in metrics.items()
                       if m["bound_verdict"] == "unresolved"],
        "failed_runs": sum(1 for pair in runs for side in ("base", "head")
                           if pair[side] is None or not pair[side]["ok"]),
        "flagged_pairs": flagged_pairs(runs),
    }
    return metrics, verdict


def flagged_pairs(runs):
    """Indices of the pairs whose noise stamps spread by more than
    STAMP_RATIO; a pair missing any stamp is not judged."""
    flagged = []
    for i, pair in enumerate(runs):
        stamps = []
        for side in ("base", "head"):
            stamps.extend((pair[side] or {}).get("stamp_ns") or [None, None])
        if all(isinstance(v, (int, float)) and v > 0 for v in stamps) and \
                max(stamps) / min(stamps) > STAMP_RATIO:
            flagged.append(i)
    return flagged


def run_order(pair_index):
    """The side that runs first flips every pair."""
    return ("base", "head") if pair_index % 2 == 0 else ("head", "base")


def declared_metrics(benchmark):
    declared = {}
    for entry in benchmark.get("end_to_end", []):
        declared[entry["name"]] = (entry["better"], entry.get("bound"))
    for entry in benchmark.get("per_layer", []):
        declared[entry["name"]] = (entry["better"], entry.get("bound"))
    return declared


# --- running --------------------------------------------------------------------


def git(repo, *args):
    done = subprocess.run(["git", "-C", repo] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise RuntimeError("git %s: %s" % (" ".join(args), done.stderr.strip()))
    return done.stdout.strip()


def checkout(repo, sha, path):
    """A worktree of `sha` at `path`, reusing one already there."""
    if os.path.isdir(path):
        try:
            if git(path, "rev-parse", "HEAD") == sha:
                log("reusing worktree %s at %s" % (path, sha[:12]))
                return
        except RuntimeError:
            pass
        raise RuntimeError("%s exists and is not a worktree at %s" %
                           (path, sha[:12]))
    git(repo, "worktree", "add", "--detach", path, sha)


def build(path, side):
    """Builds the benchmark binary through the checkout's own run.py."""
    spec = importlib.util.spec_from_file_location(
        "e2ebench_run_" + side, os.path.join(path, "e2ebench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not module.build():
        raise RuntimeError("benchmark build failed in " + path)


def compile_probe(workdir):
    """Compiles the noise-stamp probe into `workdir`: (binary, None), or
    (None, why not)."""
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "memory_latency_probe.cc")
    binary = os.path.join(workdir, "memory_latency_probe")
    try:
        done = subprocess.run(["c++", "-O2", "-o", binary, source],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except OSError as e:
        return None, str(e)
    if done.returncode != 0:
        return None, done.stderr.strip()[-500:] or "c++ failed"
    return binary, None


def stamp(probe):
    """One noise stamp in ns per load, or None."""
    if probe is None:
        return None
    done = subprocess.run([probe], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    try:
        return float(done.stdout.split()[0]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def run_once(path, args, seed, log_path):
    command = [sys.executable, "e2ebench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    with open(log_path, "a") as stderr:
        done = subprocess.run(command, cwd=path, stdout=subprocess.PIPE,
                              stderr=stderr, text=True)
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{\"correct\"")]
    if not results:
        return {"seed": seed, "ok": False, "exit": done.returncode,
                "metrics": {}}
    result = results[-1]
    return {"seed": seed,
            "ok": done.returncode == 0 and bool(result["correct"]),
            "exit": done.returncode,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def write_result(args, shas, runs, declared, probe_error):
    metrics, verdict = summarize(runs, declared)
    doc = {"workload": args.workload, "base": shas["base"],
           "head": shas["head"], "seconds": args.seconds,
           "trace": args.trace, "pairs_run": len(runs),
           "stamps": {"probe": "scripts/memory_latency_probe.cc",
                      "ratio_limit": STAMP_RATIO,
                      "unstamped_because": probe_error},
           "seeds": [args.seed + i for i in range(len(runs))],
           "first": [run_order(i)[0] for i in range(len(runs))],
           "runs": runs, "metrics": metrics, "verdict": verdict}
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
    os.replace(tmp, args.out)
    return verdict


def run(args):
    repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
    shas = {"base": git(repo, "rev-parse", "--verify", args.base + "^{commit}"),
            "head": git(repo, "rev-parse", "--verify", args.head + "^{commit}")}
    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_bench-")
    os.makedirs(workdir, exist_ok=True)
    paths = {side: os.path.join(workdir, side) for side in shas}
    for side in ("base", "head"):
        checkout(repo, shas[side], paths[side])
    with open(os.path.join(paths["head"], "BENCHMARK.json")) as f:
        declared = declared_metrics(json.load(f))
    probe, probe_error = compile_probe(workdir)
    if probe is None:
        log("noise probe did not compile, runs go unstamped: " + probe_error)
    try:
        for side in ("base", "head"):
            log("building %s (%s)" % (side, shas[side][:12]))
            build(paths[side], side)
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            pair = {}
            for side in run_order(i):
                log("pair %d/%d seed %d: %s" % (i + 1, args.pairs, seed, side))
                before = stamp(probe)
                pair[side] = run_once(paths[side], args, seed,
                                      os.path.join(workdir, side + ".log"))
                pair[side]["stamp_ns"] = [before, stamp(probe)]
                if not pair[side]["ok"]:
                    log("%s run failed (exit %d); see %s.log" %
                        (side, pair[side]["exit"], side))
            runs.append(pair)
            write_result(args, shas, runs, declared, probe_error)
        verdict = write_result(args, shas, runs, declared, probe_error)
    finally:
        if not args.keep_worktrees:
            for side in ("base", "head"):
                git(repo, "worktree", "remove", "--force", paths[side])
            if args.workdir is None:
                shutil.rmtree(workdir, ignore_errors=True)
    log("gains: %s; worse: %s; unresolved: %s; failed runs: %d; "
        "pairs flagged by the noise stamp: %s" %
        (verdict["gains"], verdict["worse"], verdict["unresolved"],
         verdict["failed_runs"], verdict["flagged_pairs"]))
    return 0


# --- self-test ------------------------------------------------------------------


def self_test():
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)

    declared = {"p50_ms": ("lower", 0.25), "max_qps": ("higher", 0.25),
                "ok_ratio": ("higher", 0.01), "exec.ms": ("lower", None)}

    def pairs_of(base, head):
        runs = []
        for b, h in zip(base, head):
            runs.append({side: {"ok": True, "metrics": m}
                         for side, m in (("base", b), ("head", h))})
        return runs

    # A clear gain: HEAD 1.5 ms faster in every pair, spread ~0.2 ms.
    jitter = [0.00, 0.10, -0.10, 0.05, -0.05, 0.15, -0.15, 0.02, -0.02, 0.08]
    base = [{"p50_ms": 5.6 + j, "max_qps": 420 + 10 * j, "ok_ratio": 1.0,
             "exec.ms": 2.0} for j in jitter]
    head = [{"p50_ms": 4.1 + j, "max_qps": 421 + 10 * j, "ok_ratio": 1.0,
             "exec.ms": 2.0} for j in jitter]
    metrics, verdict = summarize(pairs_of(base, head), declared)
    expect(metrics["p50_ms"]["gain"], "1.5 ms faster in 10/10 pairs is a gain")
    expect(metrics["p50_ms"]["wins"] == 10, "p50 wins 10/10")
    expect(metrics["p50_ms"]["bound_verdict"] == "within",
           "a gain is within the bound")
    expect(abs(metrics["p50_ms"]["base"]["median"] - 5.61) < 1e-9,
           "base median of the jittered samples")
    expect(not metrics["max_qps"]["gain"],
           "a 1 qps edge inside the base IQR is no gain")
    expect(metrics["ok_ratio"]["ties"] == 10 and
           metrics["ok_ratio"]["bound_verdict"] == "within",
           "identical ratios tie and stay within the bound")
    expect(metrics["exec.ms"]["bound_verdict"] == "unbounded",
           "a metric without a bound is unbounded")
    expect(verdict["gains"] == ["p50_ms"], "only p50_ms gains")

    # Eight wins of ten are not enough, however far apart the medians.
    head8 = [dict(h) for h in head]
    head8[0]["p50_ms"] = 9.0
    head8[1]["p50_ms"] = 9.0
    metrics, _ = summarize(pairs_of(base, head8), declared)
    expect(metrics["p50_ms"]["wins"] == 8 and not metrics["p50_ms"]["gain"],
           "8/10 wins is no gain")

    # A failed HEAD run loses its pair.
    runs = pairs_of(base, head)
    runs[3]["head"] = {"ok": False, "metrics": {}}
    runs[4]["head"] = None
    metrics, verdict = summarize(runs, declared)
    expect(metrics["p50_ms"]["losses"] == 2 and not metrics["p50_ms"]["gain"],
           "failed runs lose their pairs")
    expect(verdict["failed_runs"] == 2, "failed runs are counted")

    # A regression beyond the bound, and a spread wider than it.
    slow = [{"p50_ms": 1.5 * b["p50_ms"]} for b in base]
    metrics, verdict = summarize(pairs_of(base, slow), declared)
    expect(metrics["p50_ms"]["bound_verdict"] == "worse",
           "50% slower is worse than a 0.25 bound")
    expect(verdict["worse"] == ["p50_ms"], "the regression is listed")
    wide = [0.0, 2.0, -2.0, 1.8, -1.8, 1.5, -1.5, 0.5, -0.5, 1.0]
    noisy_base = [{"p50_ms": 5.0 + w} for w in wide]
    noisy_head = [{"p50_ms": 5.2 + w} for w in reversed(wide)]
    metrics, _ = summarize(pairs_of(noisy_base, noisy_head), declared)
    expect(metrics["p50_ms"]["bound_verdict"] == "unresolved",
           "an IQR wider than the bound is unresolved")
    apart = [{"p50_ms": 2.0 + w / 10} for w in wide]
    metrics, _ = summarize(pairs_of(noisy_base, apart), declared)
    expect(metrics["p50_ms"]["bound_verdict"] == "within",
           "every HEAD run better than every base run resolves a wide spread")

    # Floating-point noise ties: samples that differ only in their last
    # digits (a ratio summed in another order) are neither wins nor a gain.
    base_p = [{"precision_at_k": 0.8287356321839076 + d}
              for d in (0, 1e-16, 2e-16, 0, 1e-16, 0, 2e-16, 1e-16, 0, 0)]
    head_p = [{"precision_at_k": 0.8287356321839080 + d}
              for d in (2e-16, 1e-16, 0, 2e-16, 0, 1e-16, 0, 2e-16, 1e-16,
                        2e-16)]
    declared_p = {"precision_at_k": ("higher", 0.01)}
    metrics, verdict = summarize(pairs_of(base_p, head_p), declared_p)
    expect(metrics["precision_at_k"]["ties"] == 10,
           "last-digit differences tie")
    expect(not metrics["precision_at_k"]["gain"],
           "last-digit differences are no gain")
    expect(metrics["precision_at_k"]["bound_verdict"] == "within",
           "last-digit differences stay within the bound")
    expect(same(1.0, 1.0 + 1e-13) and not same(1.0, 1.0 + 1e-11),
           "the tie tolerance is relative, 1e-12")

    # Noise stamps flag exactly the pairs whose memory latency drifted,
    # and change no verdict.
    runs = pairs_of(base, head)
    unstamped_metrics, unstamped_verdict = summarize(runs, declared)
    drifted = {2, 7}
    for i, pair in enumerate(runs):
        pair["base"]["stamp_ns"] = [80.0, 84.0]
        pair["head"]["stamp_ns"] = [82.0, 150.0 if i in drifted else 90.0]
    runs[5]["head"]["stamp_ns"] = [None, 300.0]  # an unstamped run
    metrics, verdict = summarize(runs, declared)
    expect(verdict["flagged_pairs"] == sorted(drifted),
           "the stamps flag exactly the drifted pairs")
    expect(metrics == unstamped_metrics and
           {n: v for n, v in verdict.items() if n != "flagged_pairs"} ==
           {n: v for n, v in unstamped_verdict.items()
            if n != "flagged_pairs"},
           "stamps change no verdict")
    expect(unstamped_verdict["flagged_pairs"] == [],
           "unstamped runs flag nothing")

    # The run order flips every pair and the seeds differ.
    orders = [run_order(i) for i in range(10)]
    expect(all(orders[i][0] != orders[i + 1][0] for i in range(9)),
           "the first side flips every pair")
    expect(orders[0] == ("base", "head"), "pair 0 runs base first")

    for failure in failures:
        print("self-test FAILED: " + failure, file=sys.stderr)
    if failures:
        return 1
    print("ab_bench self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--base")
    parser.add_argument("--head")
    parser.add_argument("--workload")
    parser.add_argument("--out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--keep-worktrees", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    missing = [flag for flag in ("base", "head", "workload", "out")
               if getattr(args, flag) is None]
    if missing:
        parser.error("missing --" + ", --".join(missing))
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    try:
        return run(args)
    except RuntimeError as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
