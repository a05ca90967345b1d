#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload sim-failover --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The perfbench binary is built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; --trace 0 reports the end-to-end metrics named in
BENCHMARK.json, --trace 1 the per-layer ones. Spans and one record per
run, tagged with its environment, go to .bench_out/. A run whose
correctness gate fails prints no metrics and exits 1.

--smoke runs every workload briefly in both modes, fails if a metric named
in BENCHMARK.json is missing or has no unit, and checks that every workload
repeats its virtual-time results exactly for one seed. See METHOD.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
DIGEST = "note: determinism "
VIRTUAL_METRICS = ("vlat_p50_ms", "vlat_p99_ms", "outage_ms", "rejoin_p50_ms")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the perfbench binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json names for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]], \
        [w["name"] for w in spec["workloads"]]


def check_result(result, trace):
    """Problems with a result line against BENCHMARK.json (empty = fine)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    expected, _ = declared_metrics(trace)
    metrics = result["metrics"]
    for name, unit in expected:
        m = metrics.get(name)
        if m is None:
            problems.append("metric %s is missing" % name)
        elif not m.get("unit"):
            problems.append("metric %s has no unit" % name)
        elif m["unit"] != unit:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, m["unit"], unit))
        elif not isinstance(m.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    extra = set(metrics) - {name for name, _ in expected}
    if extra:
        problems.append("metrics not named in BENCHMARK.json: %s" % sorted(extra))
    return problems


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the perfbench binary; returns (exit code, result dict or None,
    the run's determinism digest or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_id(), "--out-dir", OUT_DIR]
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
        return 1, None, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: no result line from perfbench")
        return 1, None, None
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    record = {"env": env, "result": result}
    path = os.path.join(ROOT, OUT_DIR, "record-%s-%d-trace%d.json"
                        % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    digest = next((l[len(DIGEST):] for l in lines if l.startswith(DIGEST)), None)
    return proc.returncode, result, digest


def smoke(binary):
    failures = []
    _, workloads = declared_metrics(False)
    for workload in workloads:
        for trace in (0, 1):
            code, result, _ = run_once(binary, workload, 1, 4, trace, echo=False)
            problems = ["exit code %d" % code] if code != 0 else []
            if result is None:
                problems.append("no result")
            else:
                if not result["correct"]:
                    problems.append("correctness gate failed")
                problems += check_result(result, trace)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("smoke %-13s trace %d: %s" % (workload, trace, status))
            failures += problems
    # Each workload repeats itself exactly for one seed, and a new seed
    # changes the arrivals and the network draws.
    for workload in workloads:
        runs = [run_once(binary, workload, seed, 4, 0, echo=False)
                for seed in (5, 5, 6)]
        if any(r is None or not r["correct"] for _, r, _ in runs):
            failures.append("%s determinism runs failed" % workload)
            print("smoke determinism %-13s: FAILED (a run failed)" % workload)
            continue
        # The digest holds every virtual result and the message count.
        virtual = [({k: r["metrics"][k]["value"] for k in VIRTUAL_METRICS}, d)
                   for _, r, d in runs]
        same = virtual[0] == virtual[1]
        moved = virtual[0] != virtual[2]
        print("smoke determinism %-13s: same seed %s, other seed %s" %
              (workload, "identical" if same else "DIFFERENT",
               "differs" if moved else "IDENTICAL"))
        if not same or not moved:
            failures.append("%s determinism" % workload)
    print("smoke: %s" % ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)

    code, result, _ = run_once(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    if result is None:
        return 1
    problems = check_result(result, args.trace) if result["correct"] else []
    for p in problems:
        log("perfbench: " + p)
    if code != 0 or not result["correct"] or problems:
        print(json.dumps({"correct": False, "attempted": result.get("attempted", 0),
                          "failed": result.get("failed", 0), "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
