#!/usr/bin/env python3
"""Paired parent/change runs of one perfbench workload.

    python3 scripts/perf_pairs.py --base HEAD~1 --workload sim-bulk-put \\
        --seeds 401-410 --seconds 30 [--pin CPU]

Run from the repository root. The working tree is the change; --base names
the revision to compare against. The base revision is exported with
`git archive` into a temporary directory, and each side's perfbench is
built by its own perfbench/run.py (so with its own, identical flags) into
its own build directory there. For every seed the script then runs both
sides back to back, alternating which goes first, and prints:

  * the metric of every pair, which side won it, and the ratio
    change / parent;
  * each side's quartiles (statistics.quantiles(n=4), as in METHOD.md),
    and the quartiles of the per-pair ratios;
  * the win count and the METHOD.md verdict: the change must win at least
    nine pairs in ten and beat the parent's median by more than the
    parent's interquartile range;
  * whether the two sides printed the same `note: determinism` line for
    every seed (virtual-time results and message counts);
  * the median per-pair ratio of every end-to-end metric BENCHMARK.json
    declares, flagged WORSE where it moved the wrong way by more than
    that metric's `bound`, and flagged unresolved where the spread of its
    per-pair ratios (q3 - q1) is wider than the bound: such a median
    tells neither "unchanged" nor "worse" apart. A metric on which every
    change run beats every parent run is never unresolved;
  * each side's median of every other metric the runs reported.

With --pin CPU the two sides of a pair run at the same time, both bound
to that one CPU (os.sched_setaffinity), instead of back to back. Load on
the host and frequency drift then hit both sides of a pair alike, so the
per-pair ratio stays tight even while the absolute cost per op wanders
(docs/PERFORMANCE.md, "Paired runs on one CPU").

Exits 0 when every run passed its correctness gate, 1 otherwise; the
verdict itself does not set the exit code.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = "note: determinism "


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_seeds(text):
    """'401-410' or '3,5,9' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-", 1)
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_direction(spec, name):
    """'lower' or 'higher', as BENCHMARK.json declares the metric."""
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] == name:
            return metric["better"]
    raise SystemExit("perf_pairs: %s is not a metric in BENCHMARK.json" % name)


def pair_ratio(p, c):
    """change / parent; two zeros are no change."""
    if p == 0:
        return 1.0 if c == 0 else float("inf")
    return c / p


def export_revision(rev, dest):
    """Writes the tree of `rev` into `dest` (no .git, nothing registered)."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit("perf_pairs: cannot export revision %s" % rev)


def start(side, workload, seed, seconds, trace, pin=None):
    """Launches one run.py invocation (bound to CPU `pin` if given)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=side["build"])
    bind = None if pin is None else (lambda: os.sched_setaffinity(0, {pin}))
    return subprocess.Popen(cmd, cwd=side["tree"], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=bind)


def finish(side, seed, proc):
    """Waits for a run; returns (result dict or None, digest line)."""
    stdout, stderr = proc.communicate()
    lines = stdout.rstrip("\n").split("\n")
    digest = next((l[len(DIGEST):] for l in lines if l.startswith(DIGEST)),
                  None)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        log("perf_pairs: %s seed %d failed:\n%s" %
            (side["name"], seed, stderr[-2000:]))
        return None, digest
    return result, digest


def run(side, workload, seed, seconds, trace):
    """One run.py invocation; returns (result dict or None, digest line)."""
    return finish(side, seed, start(side, workload, seed, seconds, trace))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="parent revision (anything git rev-parse takes)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 401-410")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metric", default="cpu_us_per_op")
    parser.add_argument("--pin", type=int, metavar="CPU",
                        help="run both sides of a pair at once, bound to "
                             "this CPU")
    parser.add_argument("--workdir",
                        help="parent of the temporary directory (default: "
                             "the system temporary directory)")
    args = parser.parse_args()
    if args.pin is not None and args.pin not in os.sched_getaffinity(0):
        parser.error("--pin %d: not a CPU this process may run on" % args.pin)
    seeds = parse_seeds(args.seeds)
    spec = load_spec()
    better = metric_direction(spec, args.metric)

    tmp = tempfile.mkdtemp(prefix="perf_pairs-", dir=args.workdir)
    # A SIGTERM still removes the temporary checkout and builds.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        base_tree = os.path.join(tmp, "base")
        export_revision(args.base, base_tree)
        sides = [
            {"name": "parent", "tree": base_tree,
             "build": os.path.join(tmp, "build-parent")},
            {"name": "change", "tree": ROOT,
             "build": os.path.join(tmp, "build-change")},
        ]
        # A short first run builds each side (not counted).
        for side in sides:
            log("perf_pairs: building %s" % side["name"])
            if run(side, args.workload, seeds[0], 1, args.trace)[0] is None:
                return 1
        return compare(args, seeds, spec, better, sides)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def compare(args, seeds, spec, better, sides):
    parent, change = [], []
    medians = {"parent": {}, "change": {}}  # metric -> values per side
    pair_ratios = {}  # metric -> change / parent of every complete pair
    wins = 0
    same_digest = True
    failed = False
    ratios = []
    print("workload %s, metric %s (%s is better), %d s per run, %s" %
          (args.workload, args.metric, better, args.seconds,
           "sides back to back" if args.pin is None else
           "sides together on CPU %d" % args.pin))
    print("%6s %12s %12s %8s %7s  %-6s  %s" %
          ("seed", "parent", "change", "delta", "ratio", "winner",
           "determinism"))
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        got = {}
        if args.pin is None:
            for side in order:
                got[side["name"]] = run(side, args.workload, seed,
                                        args.seconds, args.trace)
        else:
            procs = [(side, start(side, args.workload, seed, args.seconds,
                                  args.trace, args.pin)) for side in order]
            for side, proc in procs:
                got[side["name"]] = finish(side, seed, proc)
        (p_res, p_dig), (c_res, c_dig) = got["parent"], got["change"]
        match = p_dig is not None and p_dig == c_dig
        same_digest = same_digest and match
        if p_res is None or c_res is None:
            failed = True
            print("%6d %12s %12s %8s %7s  %-6s  %s" %
                  (seed, "-", "-", "-", "-", "-",
                   "same" if match else "DIFFERENT"))
            continue
        for name, res in (("parent", p_res), ("change", c_res)):
            for metric, m in res["metrics"].items():
                medians[name].setdefault(metric, []).append(m["value"])
        for metric, m in p_res["metrics"].items():
            if metric in c_res["metrics"]:
                pair_ratios.setdefault(metric, []).append(pair_ratio(
                    m["value"], c_res["metrics"][metric]["value"]))
        p = p_res["metrics"][args.metric]["value"]
        c = c_res["metrics"][args.metric]["value"]
        parent.append(p)
        change.append(c)
        won = c < p if better == "lower" else c > p
        wins += won
        ratio = pair_ratio(p, c)
        ratios.append(ratio)
        print("%6d %12.4g %12.4g %+7.1f%% %7.4f  %-6s  %s" %
              (seed, p, c, (ratio - 1) * 100, ratio,
               "change" if won else "parent",
               "same" if match else "DIFFERENT"), flush=True)

    if not parent:
        print("no complete pairs")
        return 1
    pq, cq = quartiles(parent), quartiles(change)
    for name, q in (("parent", pq), ("change", cq)):
        print("%s q1/median/q3: %.4g / %.4g / %.4g" % ((name,) + q))
    print("ratio q1/median/q3: %.4f / %.4f / %.4f" % quartiles(ratios))
    pairs = len(parent)
    need = math.ceil(0.9 * pairs)
    gap = pq[1] - cq[1] if better == "lower" else cq[1] - pq[1]
    iqr = pq[2] - pq[0]
    print("wins: %d/%d (need %d); median gap %.4g vs parent IQR %.4g "
          "(%+.1f%% median change)" %
          (wins, pairs, need, gap, iqr, (cq[1] - pq[1]) / pq[1] * 100))
    verdict = wins >= need and gap > iqr
    print("verdict: %s" % ("GAIN" if verdict else "no gain shown"))
    print("determinism: %s" % ("identical on every seed" if same_digest
                               else "DIFFERS on some seed"))
    # The benchmark's guard: no end-to-end metric may get worse than the
    # parent by more than its bound.
    print("end-to-end metrics, median ratio change / parent:")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in pair_ratios:
            print("  %-16s not reported" % name)
            continue
        r = statistics.median(pair_ratios[name])
        lower = metric["better"] == "lower"
        worse = r > 1 + bound if lower else r < 1 - bound
        q1, _, q3 = quartiles(pair_ratios[name])
        p_runs, c_runs = medians["parent"][name], medians["change"][name]
        beats_all = (max(c_runs) < min(p_runs) if lower
                     else min(c_runs) > max(p_runs))
        unresolved = q3 - q1 > bound and not beats_all
        print("  %-16s %8.4f  (%s is better, bound %g, ratio IQR %.4f)%s%s" %
              (name, r, metric["better"], bound, q3 - q1,
               "  WORSE beyond bound" if worse else "",
               "  unresolved" if unresolved else ""))
    print("medians, parent -> change:")
    for metric, values in sorted(medians["parent"].items()):
        print("  %-32s %12.6g -> %.6g" % (
            metric, statistics.median(values),
            statistics.median(medians["change"][metric])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
