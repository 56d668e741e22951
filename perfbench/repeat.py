#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric.

    python3 perfbench/repeat.py --workload switch --seeds 1-10 \\
        [--trace 0|1] [--seconds S] [--record perfbench/trajectory/NAME.json]

Runs one after another, never in parallel.  For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound.  ``--record`` adds
the runs, the summary and the first run's environment record to a
trajectory file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        last = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **last})
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
        s, bound = summary[name], bounds.get(name)
        limit = f"bound {bound:.2f}" if bound is not None else ""
        print(f"{name:<55} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {limit}")

    if args.record:
        record = json.loads(args.record.read_text(encoding="utf-8")) if args.record.exists() else {}
        stem = f"{args.workload}-seed{args.seeds[0]}-trace{args.trace}"
        env = json.loads((ROOT / ".perfbench_out" / f"result-{stem}.json")
                         .read_text(encoding="utf-8"))["environment"]
        key = args.workload + (" traced" if args.trace else "")
        record[key] = {"environment": env, "seconds": args.seconds, "runs": runs,
                       "summary": summary}
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")


if __name__ == "__main__":
    main()
