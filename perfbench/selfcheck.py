"""Quick self-check of the benchmark harness, at tiny sizes.

Run from the root of a treeshift checkout:

    python3 perfbench/selfcheck.py

It runs one pass of every workload untraced and traced, and checks that
  * every job passes its correctness gate;
  * the gate catches a deliberately wrong expected value (broom-deep's norm,
    cli-cold's stdout);
  * traced and untraced phases report the same end-to-end metric names, the
    traced run reports every per-layer metric, and both lists match
    BENCHMARK.json.
Exits 1 on the first failed check.
"""

import copy
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import run  # noqa: E402

TINY = {
    "broom-deep": {"pool_size": 3, "vertices": (200, 400)},
    "oracle-dense": {"pool_size": 3, "binary_depth": 4, "random_n": (30, 40)},
    "model-tails": {"pool_size": 3, "depths": (15, 30)},
    "cli-cold": {},
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selfcheck FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def tiny_workload(name: str):
    wl = run.make_workload(name, 0)
    for attr, value in TINY[name].items():
        setattr(wl, attr, value)
    return wl


def main() -> int:
    if not os.path.isfile(os.path.join("src", "treeshift", "__init__.py")):
        print("selfcheck: run from the root of a treeshift checkout", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    expect(e2e_names == {n for n, _ in run.END_TO_END}, "BENCHMARK.json end_to_end matches run.py")
    expect(layer_names == {n for n, _ in run.PER_LAYER}, "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS), "BENCHMARK.json workloads")

    for name in run.WORKLOADS:
        wl = tiny_workload(name)
        pool = wl.pool(run.pool_rng(name, 0))
        untraced = run.Phase(wl, pool, False, 0)
        traced = run.Phase(wl, pool, True, 0)
        for phase in (untraced, traced):
            expect(phase.mismatched_jobs == 0, f"{name}: gate passes ({dict(phase.kinds)})")
        expect(untraced.digest == traced.digest, f"{name}: traced and untraced outputs agree")
        expect(set(untraced.end_to_end()) == set(traced.end_to_end()),
               f"{name}: traced and untraced report the same end-to-end names")
        expect(e2e_names - {"setup_s", "peak_rss_mb"} <= set(untraced.end_to_end()),
               f"{name}: end-to-end metrics computed")
        expect(set(run.per_layer(traced, untraced)) == layer_names,
               f"{name}: traced run reports every per-layer metric")

        if name == "broom-deep":
            bad = copy.deepcopy(pool[0])
            bad["expected_norm"] *= 1.5
            phase = run.Phase(wl, [bad], False, 0)
            expect(phase.kinds["check.broom_norm"] == 1, "broom-deep: a wrong expected norm is caught")
        if name == "cli-cold":
            bad = dict(pool[0], ref_stdout=pool[0]["ref_stdout"] + " ")
            phase = run.Phase(wl, [bad], False, 0)
            expect(phase.kinds["cli.stdout"] == 1, "cli-cold: a wrong expected stdout is caught")
            shutil.rmtree(wl.workdir, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
