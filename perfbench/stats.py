#!/usr/bin/env python3
"""Runs the benchmark over many seeds and summarizes or compares the runs.

Run from the root of a checkout:

  # ten seeds of every workload, one JSON line per run (stamp + result);
  # workloads are interleaved seed by seed, in an order that rotates
  # with the seed, so a drift in the host's speed spreads evenly over
  # the workloads instead of showing as a trend within one
  python3 perfbench/stats.py runs --workload gen-12,serve-mix,yield-jobs --seeds 1-10 --out a.jsonl

  # median, quartiles and quartile spread per workload x metric,
  # checked against the bounds in BENCHMARK.json
  python3 perfbench/stats.py spread a.jsonl [b.jsonl ...] [--json out.json]

  # is the change's median worse than the base's by more than the bound?
  # exits 1 when any metric x workload is flagged
  python3 perfbench/stats.py compare base.jsonl change.jsonl

Extra arguments after `--` in `runs` go to the benchmark (for example
`-- --analysis-workers -1` for the resolution check).
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def cmd_runs(a):
    bench = load_bench()
    workloads = a.workload.split(",")
    plan = []
    for k, seed in enumerate(seeds_of(a.seeds)):
        r = k % len(workloads)
        plan += [(wl, seed) for wl in workloads[r:] + workloads[:r]]
    with open(a.out, "a") as out:
        for wl, seed in plan:
            argv = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(a.seconds or bench["run_seconds"]), "--trace", str(a.trace),
            ] + a.extra
            p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or len(lines) < 2:
                sys.exit(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            rec = {"stamp": json.loads(lines[-2])["stamp"], "result": json.loads(lines[-1])}
            out.write(json.dumps(rec) + "\n")
            out.flush()
            r = rec["result"]
            print(wl, seed, r["correct"], r["attempted"], r["failed"],
                  {k: round(v["value"], 4) for k, v in r["metrics"].items()}, flush=True)


def load_runs(paths):
    """Returns {workload: {metric: [values]}} over every run in paths."""
    by = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                w = by.setdefault(rec["stamp"]["workload"], {})
                for k, v in rec["result"]["metrics"].items():
                    w.setdefault(k, []).append(v["value"])
    return by


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def cmd_spread(a):
    bounds = {m["name"]: m["bound"] for m in load_bench()["end_to_end"]}
    out, worst = {}, 0.0
    for wl, metrics in sorted(load_runs(a.files).items()):
        for name, values in sorted(metrics.items()):
            s = summary(values)
            b = bounds.get(name)
            s["bound"] = b
            out.setdefault(wl, {})[name] = s
            flag = ""
            if b is not None and name != "setup_s":
                worst = max(worst, s["spread"] / b)
                flag = "OVER BOUND" if s["spread"] > b else ("ok" if s["spread"] < b / 3 else "within bound")
            print(f"{wl:10s} {name:18s} n={s['n']:2d} median={s['median']:.5g} "
                  f"q1={s['q1']:.5g} q3={s['q3']:.5g} spread={s['spread']:.4f} bound={b} {flag}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


def cmd_compare(a):
    spec = {m["name"]: m for m in load_bench()["end_to_end"]}
    base, change = load_runs([a.base]), load_runs([a.change])
    flagged = 0
    for wl in sorted(set(base) & set(change)):
        for name in sorted(set(base[wl]) & set(change[wl]) & set(spec)):
            mb, mc = statistics.median(base[wl][name]), statistics.median(change[wl][name])
            rel = (mc - mb) / mb if mb else 0.0
            worse = -rel if spec[name]["better"] == "higher" else rel
            bad = worse > spec[name]["bound"]
            flagged += bad
            print(f"{wl:10s} {name:18s} base={mb:.5g} change={mc:.5g} worse_by={worse:+.4f} "
                  f"bound={spec[name]['bound']} {'WORSE BEYOND BOUND' if bad else 'ok'}")
    sys.exit(1 if flagged else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    r.add_argument("extra", nargs="*")
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    s.add_argument("--json")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("change")
    a = ap.parse_args()
    {"runs": cmd_runs, "spread": cmd_spread, "compare": cmd_compare}[a.cmd](a)


if __name__ == "__main__":
    main()
