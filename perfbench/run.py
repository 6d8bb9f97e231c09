#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kvd_zipf --seed 1 --seconds 32 --trace 0

Builds the Go program in perfbench/ against the checkout's own sources,
into .bench_build/ (reused while no .go file or go.mod changes), then runs
one workload. Everything the build and the run write stays under
.bench_build/: the Go build cache, the binary, and a traced run's spans.
An end-to-end run (--trace 0) starts the program several times and
combines their results; a traced run starts it once. The program's
standard output is passed through; the last line is the JSON result. The
exit status is 0, or non-zero on a correctness breach, a crash, or when
the checkout holds no Go module to build.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
PROCESSES = 16
BUILD_TIMEOUT_S = 840


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".git", ".bench_build"))
        for f in sorted(filenames):
            if f.endswith(".go") or f == "go.mod":
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def build(go, tag):
    binary = os.path.join(OUT, "perfbench", "perfbench-" + tag)
    if os.path.exists(binary):
        return binary
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(OUT, "gocache"),
        "GOTMPDIR": os.path.join(OUT, "tmp"),
        "GOPATH": os.path.join(OUT, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(OUT, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
    })
    for k in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[k], exist_ok=True)
    tmp = binary + ".tmp"
    try:
        r = subprocess.run([go, "build", "-o", tmp, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0:
        die("build failed")
    os.replace(tmp, binary)
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    go_mod = os.path.join(ROOT, "go.mod")
    if not os.path.exists(go_mod) or not os.path.isdir(os.path.join(ROOT, "internal")):
        die("no qsense module at %s: nothing to benchmark" % ROOT)
    go = shutil.which("go") or shutil.which("go", path=os.path.join(os.environ.get("GOROOT", ""), "bin"))
    if go is None:
        die("go toolchain not found on PATH or in $GOROOT/bin")
    tag = source_hash()
    binary = build(go, tag)
    rev = "src:" + tag
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            rev = "git:%s %s" % (r.stdout.strip(), rev)
    base = [binary, "-workload", a.workload, "-trace", str(a.trace), "-rev", rev]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if a.trace:
        trace_out = os.path.join(OUT, "perfbench", "trace_%s_seed%d.jsonl" % (a.workload, a.seed))
        r = run_child(base + ["-seed", str(a.seed), "-seconds", str(a.seconds), "-trace-out", trace_out], deadline)
        for line in r.stdout.splitlines():
            print(line)
        sys.exit(r.returncode)

    # The end-to-end figures come from PROCESSES fresh processes, each
    # measuring an equal share of the run, with its own seed derived from
    # --seed. A process settles into one of two speeds for its whole life
    # (map_qsense_upsert's p99 sits near 5 or near 8 us, about half each), so
    # one process per run made every run a coin toss. The median across
    # processes flips with such an even split; the mean of many is steady.
    # Each process measures at least 2 s, so a short run uses fewer of them.
    procs = max(1, min(PROCESSES, a.seconds // 2))
    results, code = [], 0
    for i in range(procs):
        r = run_child(base + ["-seed", str(a.seed * PROCESSES + i),
                              "-seconds", str(a.seconds // procs)], deadline)
        lines = r.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            die("process %d exited with status %d and no result" % (i, r.returncode))
        code = code or r.returncode
    print(json.dumps(combine(results)))
    sys.exit(code)


def run_child(cmd, deadline):
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("run exceeded %ds" % RUN_TIMEOUT_S)


def combine(results):
    """One result from several processes' results: counts add up, setup_s is
    the median, and every other metric the mean."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            v = statistics.median(vals)
        else:
            v = statistics.fmean(vals)
        metrics[name] = {"value": v, "unit": first["unit"]}
        print("%-34s %16.4f %s  (per process: %s)" % (name, v, first["unit"], " ".join("%.4g" % x for x in vals)))
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }

if __name__ == "__main__":
    main()
