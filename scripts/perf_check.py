#!/usr/bin/env python3
"""Compare a fresh bench_smr_throughput JSON run against the committed
baseline (BENCH_smr.json) and fail on large regressions.

Usage: perf_check.py BASELINE.json CURRENT.json... [--max-regression 0.30]

Per-experiment gating: every experiment below that appears in BOTH the
baseline and the current run is checked at its canonical configuration,
and ANY of them regressing beyond the threshold fails the gate.

  * E9  — threaded wall-clock pipeline sweep, at the deepest pipeline
          depth common to both files (the headline single-log number);
  * E11 — closed-loop client sessions, at the highest common session
          count (the full-client-path number);
  * E13 — sharded multi-group sweep, at shards = 4 when both sides have
          it (else the highest common shard count) — the aggregate
          scale-out number.
  * E15 — multi-process socket transport, at the highest common session
          count, PLUS an absolute gate on the current run alone: the
          depth sweep (batch 1, one session) must show depth-8 >= 2x
          depth-1 throughput, or pipelining has stopped surviving real
          sockets.
  * E14 — open-loop latency sweep: gated on p99 completion latency
          (higher is WORSE, so the gate is now <= ref * (1 + threshold)),
          per mode, at the lowest offered rate common to both files —
          the rate where the tail is load-stable rather than
          saturation-noise. The BEST (lowest) p99 across the current
          runs counts, mirroring the throughput gates. A baseline mode
          that no current run has prints one "in baseline only, not
          gated" line. Tails below --latency-floor-us (default 25000 —
          one view-change base timeout) always pass: on an
          oversubscribed host a single scheduler stall parks enough
          arrivals to set the whole p99, so sub-floor differences are
          scheduler luck, not code.

The committed file may hold several runs ({"runs": [...]}); the LAST run
is the reference. A single-run file ({"records": [...]}) is accepted for
any argument. Several CURRENT files may be passed (repeated
measurements); the BEST of them counts per metric, so one noisy-neighbor
run cannot fail the gate.
"""

import argparse
import json
import sys

# experiment -> (config key that parameterizes it, canonical pick)
EXPERIMENTS = {
    "E9": ("depth", "max"),
    "E11": ("sessions", "max"),
    "E13": ("shards", 4),
    # Multi-process socket transport; the session sweep's top cell is the
    # headline aggregate number (the depth sweep is gated separately by
    # the absolute scaling check below).
    "E15": ("sessions", "max"),
}

# E15 must also prove pipelining survives real sockets: in its depth
# sweep (batch 1, one session, emulated link delay) depth-8 throughput
# must beat depth-1 by at least this factor — an ABSOLUTE gate on the
# current run, independent of any baseline.
E15_MIN_DEPTH_SCALING = 2.0

# Latency experiments gate a per-op quantile instead of throughput:
# experiment -> record field holding the gated latency (µs).
LATENCY_EXPERIMENTS = {
    "E14": "p99_us",
}


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    if "records" in doc:
        return doc.get("run", path), doc["records"]
    if "runs" in doc and doc["runs"]:
        last = doc["runs"][-1]
        return last.get("run", path), last["records"]
    raise SystemExit(f"{path}: no records found")


def rates_by_param(records, experiment, param):
    out = {}
    for r in records:
        if r.get("experiment") != experiment:
            continue
        value = r.get("config", {}).get(param)
        cps = r.get("cmds_per_sec", 0)
        if value is not None and cps > 0:
            out[value] = cps
    return out


def pick_param(common, preferred):
    if preferred == "max":
        return max(common)
    return preferred if preferred in common else max(common)


def latency_by_mode_rate(records, experiment, field):
    """(mode, rate) -> gated latency in µs, for open-loop records."""
    out = {}
    for r in records:
        if r.get("experiment") != experiment:
            continue
        config = r.get("config", {})
        mode, rate = config.get("mode"), config.get("rate")
        value = r.get(field, 0)
        if mode is not None and rate is not None and value > 0:
            out[(mode, rate)] = value
    return out


def check_latency(experiment, field, base_records, currents, base_label,
                  n_current, max_regression, floor_us, failures):
    """Gate p99 per mode at the lowest common rate; returns checks done."""
    base = latency_by_mode_rate(base_records, experiment, field)

    best = {}  # (mode, rate) -> (latency_us, label); lower is better
    for cur_label, cur_records in currents:
        for key, us in latency_by_mode_rate(cur_records, experiment,
                                            field).items():
            if key not in best or us < best[key][0]:
                best[key] = (us, cur_label)

    # A mode the current runs dropped would otherwise vanish from the
    # gate without a word.
    for mode in sorted({m for m, _ in base} - {m for m, _ in best}):
        print(f"{experiment} {mode}: in baseline only, not gated")

    common = set(base) & set(best)
    if not common:
        print(f"{experiment}: not present in both files, skipped")
        return 0

    checked = 0
    for mode in sorted({m for m, _ in common}):
        rate = min(r for m, r in common if m == mode)
        ref = base[(mode, rate)]
        now, cur_label = best[(mode, rate)]
        ratio = now / ref
        checked += 1
        verdict = "ok"
        if now <= floor_us:
            verdict = "ok (below noise floor)"
        elif ratio > 1.0 + max_regression:
            verdict = "REGRESSION"
            failures.append(f"{experiment}/{mode}")
        print(f"{experiment} {mode} rate {rate}: baseline({base_label}) "
              f"{field} = {ref:.0f} us, best current({cur_label}) of "
              f"{n_current} run(s) = {now:.0f} us, "
              f"ratio = {ratio:.2f} [{verdict}]")
    return checked


def e15_depth_rates(records):
    """depth -> cmds_per_sec for E15's depth-sweep cells only."""
    out = {}
    for r in records:
        if r.get("experiment") != "E15":
            continue
        config = r.get("config", {})
        if config.get("sessions") != 1 or config.get("batch") != 1:
            continue
        depth, cps = config.get("depth"), r.get("cmds_per_sec", 0)
        if depth is not None and cps > 0:
            out[depth] = cps
    return out


def check_e15_scaling(currents, failures):
    """Absolute depth-scaling gate on the current run(s); returns checks."""
    best = {}  # depth -> (cmds_per_sec, label)
    for cur_label, cur_records in currents:
        for depth, cps in e15_depth_rates(cur_records).items():
            if depth not in best or cps > best[depth][0]:
                best[depth] = (cps, cur_label)
    if len(best) < 2 or 1 not in best:
        if best:
            print("E15 scaling: depth sweep incomplete, skipped")
        return 0
    top = max(best)
    ratio = best[top][0] / best[1][0]
    verdict = "ok"
    if ratio < E15_MIN_DEPTH_SCALING:
        verdict = "FAIL"
        failures.append("E15-scaling")
    print(f"E15 scaling: depth {top} = {best[top][0]:.0f} cmds/s vs "
          f"depth 1 = {best[1][0]:.0f} cmds/s, ratio = {ratio:.2f} "
          f"(needs >= {E15_MIN_DEPTH_SCALING:.1f}) [{verdict}]")
    return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="+")
    ap.add_argument("--max-regression", type=float, default=0.30)
    ap.add_argument("--latency-floor-us", type=float, default=25000,
                    help="p99 at or below this always passes the latency "
                         "gate (default: one view-change base timeout)")
    args = ap.parse_args()

    base_label, base_records = load_records(args.baseline)
    currents = [load_records(path) for path in args.current]

    checked = 0
    failures = []
    for experiment, (param, preferred) in EXPERIMENTS.items():
        base = rates_by_param(base_records, experiment, param)

        best = {}  # param value -> (cmds_per_sec, label)
        for cur_label, cur_records in currents:
            for value, cps in rates_by_param(cur_records, experiment,
                                             param).items():
                if value not in best or cps > best[value][0]:
                    best[value] = (cps, cur_label)

        common = set(base) & set(best)
        if not common:
            print(f"{experiment}: not present in both files, skipped")
            continue

        value = pick_param(common, preferred)
        ref = base[value]
        now, cur_label = best[value]
        ratio = now / ref
        checked += 1
        verdict = "ok"
        if ratio < 1.0 - args.max_regression:
            verdict = "REGRESSION"
            failures.append(experiment)
        print(f"{experiment} {param} {value}: baseline({base_label}) = "
              f"{ref:.0f} cmds/s, best current({cur_label}) of "
              f"{len(args.current)} run(s) = {now:.0f} cmds/s, "
              f"ratio = {ratio:.2f} [{verdict}]")

    for experiment, field in LATENCY_EXPERIMENTS.items():
        checked += check_latency(experiment, field, base_records, currents,
                                 base_label, len(args.current),
                                 args.max_regression, args.latency_floor_us,
                                 failures)

    checked += check_e15_scaling(currents, failures)

    if checked == 0:
        raise SystemExit("no common experiments between baseline and current")
    if failures:
        print(f"FAIL: regression beyond {args.max_regression:.0%} in: "
              f"{', '.join(failures)}")
        return 1
    print(f"OK ({checked} experiment(s) gated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
