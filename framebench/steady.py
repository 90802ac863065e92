#!/usr/bin/env python3
"""Steadiness check of the frame benchmark.

Runs every workload named in BENCHMARK.json in two separate sets of runs
(a different seed per run), then prints per set and end-to-end metric the
median and quartiles, the spread (interquartile distance over the median)
and whether the two sets agree within the metric's bound: each spread
other than setup_s within the bound, each second median no worse than the
first by more than the bound, and the same share of failed frames.

    python3 framebench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

Run from the repository root. Raw results go to
$CARGO_TARGET_DIR/out/steady.json (default .bench_build).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(metric, first, second):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for w in workloads:
            for _ in range(args.runs):
                start = time.monotonic()
                r = run_once(bench, w, seed)
                results[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"wall={time.monotonic() - start:.1f}s",
                      file=sys.stderr, flush=True)
                seed += 1

    all_ok = True
    for w in workloads:
        print(f"\n== {w}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in results[w]]
        ok = all(r["correct"] for rs in results[w] for r in rs)
        ok &= len(set(shares)) == 1
        print(f"failed share per set: {shares}")
        for m in bench["end_to_end"]:
            sets = [summary([r["metrics"][m["name"]]["value"] for r in rs])
                    for rs in results[w]]
            row = "  ".join(f"set{i + 1} med {x['median']:.6g} "
                            f"[{x['q1']:.6g}, {x['q3']:.6g}] "
                            f"spread {x['spread']:.4f}"
                            for i, x in enumerate(sets))
            verdict = "ok"
            if m["name"] != "setup_s" and any(x["spread"] > m["bound"]
                                              for x in sets):
                verdict = "SPREAD OVER BOUND"
            for x in sets[1:]:
                if worse_by(m, sets[0]["median"], x["median"]) > m["bound"]:
                    verdict = "MEDIANS DISAGREE"
            if verdict == "ok" and any(x["spread"] > m["bound"] / 3
                                       for x in sets):
                verdict = "ok (spread over a third of the bound)"
            all_ok &= verdict.startswith("ok")
            print(f"  {m['name']:<18} bound {m['bound']:<5} {row}  {verdict}")
        all_ok &= ok

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                               os.path.join(ROOT, ".bench_build"))
    os.makedirs(os.path.join(out_root, "out"), exist_ok=True)
    with open(os.path.join(out_root, "out", "steady.json"), "w") as f:
        json.dump(results, f)
    print("\nsets agree within bounds" if all_ok else "\nsets DISAGREE")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
