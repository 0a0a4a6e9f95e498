"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py [--seeds 1-10] [--workloads score,check]
                                 [--trace-seed 1] [--out FILE]

Each run is ``run.py`` in its own process, one after another, with the run
length from ``BENCHMARK.json``.  For every end-to-end metric the summary
gives the ten values, their median and quartiles (``statistics.quantiles``,
n=4) and the spread, the interquartile distance as a share of the median,
next to the metric's bound; the same for the figures in seconds.  With ``--trace-seed`` each workload also gets
one traced run.  ``baseline.json`` beside this file is this script's output
for the commit that introduced the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    detail = json.loads(
        (run.OUT / f"{workload}-seed{seed}-trace{trace}.result.json").read_text(encoding="utf-8"))
    return json.loads(done.stdout.strip().splitlines()[-1]), detail


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    summary = {"machine": run.machine(), "run_seconds": spec["run_seconds"],
               "loop": "closed loop, one client, one process per run",
               "workloads": {}}
    for name in args.workloads.split(","):
        results, details = [], []
        for seed in args.seeds:
            result, detail = one_run(name, seed, spec["run_seconds"], 0)
            results.append(result)
            details.append(detail)
            print(f"{name} seed {seed}: {result['attempted']} ops", file=sys.stderr)
        entry = {
            "why": why.get(name),
            "seeds": args.seeds,
            "mix": [[repr(slot), weight] for slot, weight in WORKLOADS[name].BLOCK],
            "unit": WORKLOADS[name].unit,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {},
            "in_seconds": {
                key: summarise([d["in_seconds"][key] for d in details])
                for key in details[0]["in_seconds"]
            },
        }
        for metric in results[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            stats["bound"] = bounds.get(metric)
            entry["metrics"][metric] = stats
            print(f"  {metric:14s} median {stats['median']:12.5g} "
                  f"spread {stats['spread']:.4f} bound {stats['bound']}", file=sys.stderr)
        if args.trace_seed is not None:
            traced, _ = one_run(name, args.trace_seed, spec["run_seconds"], 1)
            entry["trace"] = {"seed": args.trace_seed, "metrics": traced["metrics"]}
        summary["workloads"][name] = entry
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
