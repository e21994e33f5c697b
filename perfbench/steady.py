#!/usr/bin/env python3
"""Steadiness report: rerun each workload n times and summarize the spread.

    python3 perfbench/steady.py [--runs 10] [--workloads histo,gather,rtt]
        [--seed-base 1] [--seconds <run_seconds>] [--save FILE] [--compare FILE]

Run from the repository root. Run i uses seed seed-base + i, so the report
covers several input streams. For every end-to-end metric in BENCHMARK.json
it prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile range as a share of the median, and the sample count, next to
the metric's bound. `--save` writes the raw values as JSON; `--compare`
reads such a file and reports, as a share, how much worse each median got
(negative: better). Every metric, setup_s included, is flagged when its
spread exceeds a third of its bound or the bound itself, and when its
median got worse than the compared set's by more than its bound.
This is the evidence the bounds in BENCHMARK.json rest on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    values = {}
    worst_spread = worst_move = 0.0
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            res = run_once(w, args.seed_base + i, args.seconds)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {args.seed_base + i}: incorrect result {res}")
            runs.append(res)
            print(f"{w} seed {args.seed_base + i}: " + ", ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics),
                flush=True)
        print(f"\n{w}: {len(runs)} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"  {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'iqr/med':>8} "
              f"{'bound':>6} {'n':>3}  {'worse':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [r["metrics"][name]["value"] for r in runs]
            values.setdefault(w, {})[name] = vals
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            worst_spread = max(worst_spread, spread / bound)
            flags = []
            if spread > bound:
                flags.append("spread above bound")
            elif spread > bound / 3:
                flags.append("spread above bound/3")
            worse = ""
            if w in earlier and name in earlier[w]:
                old = statistics.median(earlier[w][name])
                delta = (med - old) / old if m["better"] == "lower" else (old - med) / old
                worse = f"{delta:+.3f}"
                worst_move = max(worst_move, delta / bound)
                if delta > bound:
                    flags.append("worse than --compare by more than bound")
            flag = "  <-- " + "; ".join(flags) if flags else ""
            print(f"  {name:<12} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>8.4f} "
                  f"{bound:>6} {len(vals):>3}  {worse:>7}{flag}")
        print(flush=True)
    print(f"largest spread as a share of its bound: {worst_spread:.3f}")
    if earlier:
        print(f"largest worsening against --compare as a share of its bound: {worst_move:.3f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
