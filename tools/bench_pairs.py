"""Benchmark this checkout against a base revision in pairs of runs.

Run from the root of a treeshift git checkout:

    python3 tools/bench_pairs.py BASE_REF --workload broom-deep --pairs 6 --seconds 25 --out BENCH_8.json

Exports the committed files of BASE_REF (any git revision) into a temporary
directory, as ``tools/same_outputs.py`` does.  Pair k runs ``python3
perfbench/run.py --workload W --seed S --seconds T`` there (the parent) and
in this checkout (the change) with the same seed S = first seed + k; the
side that runs first alternates from pair to pair.  ``--workload`` may be
given more than once.

The output file keeps, per workload, every run's end-to-end metrics,
``failed`` count and output digest by seed and side, and per metric the
median and inclusive quartiles of each side, the median ratio and
difference, and in how many pairs the change reads better (the direction
comes from ``BENCHMARK.json``).  ``speed`` gives the same spread, with its
IQR, of each side's machine-speed readings (the benchmark clock's reference
seconds per wall second), so that a pair bench shows when one side's clock
readings spread.  An existing output file is updated: the
workloads run now replace theirs, the others are kept.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """Metrics, counts and output digest of one benchmark run in ``root``:
    the run record is the line before the result, the last line of stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "output_digest": record["output_digest"],
        "speed": record["end_to_end"]["speed"],
    }


def spread(xs: list) -> dict:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "runs": sorted(xs)}


def summarize(pairs: list, better: dict) -> dict:
    out = {}
    for name, lower in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        a, b = spread(parent), spread(change)
        out[name] = {
            "parent": a, "change": b,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_ratio": b["median"] / a["median"] if a["median"] else None,
            "median_diff": b["median"] - a["median"],
            "parent_iqr": a["q3"] - a["q1"],
        }
    speeds = {side: spread([p[side]["speed"] for p in pairs]) for side in ("parent", "change")}
    out["speed"] = {side: dict(s, iqr=s["q3"] - s["q1"]) for side, s in speeds.items()}
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_ref")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--first-seed", type=int, default=11)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] == "lower" for m in json.load(f)["end_to_end"]}
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            report = json.load(f)
    base_rev = subprocess.run(["git", "rev-parse", "--short", args.base_ref], capture_output=True,
                              text=True, check=True).stdout.strip()
    report.update({
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds}, "
                   f"in this checkout (change) and in a git archive of {base_rev} (parent)",
        "method": "pairs of runs with the same seed, alternating which side runs first; medians and "
                  "inclusive quartiles over the pairs; change_wins counts the pairs where the change reads better",
    })
    workloads = report.setdefault("workloads", {})
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "archive", args.base_ref], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        roots = {"parent": base, "change": os.getcwd()}
        for workload in args.workload:
            pairs = []
            for k in range(args.pairs):
                seed = args.first_seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(roots[side], workload, seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} seed {seed}: jobs_per_s parent {pair['parent']['metrics']['jobs_per_s']:.3f}, "
                      f"change {pair['change']['metrics']['jobs_per_s']:.3f}; speed parent "
                      f"{pair['parent']['speed']:.3f}, change {pair['change']['speed']:.3f}", flush=True)
            workloads[workload] = {"pairs": pairs, "summary": summarize(pairs, better)}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
