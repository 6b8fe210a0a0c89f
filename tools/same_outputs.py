"""Check that the benchmark's per-job outputs match those of a base revision.

Run from the root of a treeshift git checkout:

    python3 tools/same_outputs.py BASE_REF

Exports the committed files of BASE_REF (any git revision) into a temporary
directory, then runs ``python3 perfbench/run.py --workload W --seed S
--seconds 1`` there and in this checkout, for every workload in
``BENCHMARK.json`` and seeds 1-3.  Exits 0 when every pair of runs gives the
same ``output_digest`` and ``failed`` count, 1 otherwise.  Where the digests
differ, it runs the seed's pool once more on each side, job by job through
the benchmark's own modules, and prints every output that differs: workload,
seed, job (its index in the pool), output (its index in the job's outputs),
the base value and the value here.
"""

import itertools
import json
import os
import subprocess
import sys
import tempfile

SEEDS = (1, 2, 3)

# One pass over a seed's pool, as perfbench/run.py makes it: prints each
# job's outputs (the strings the output digest hashes) as one JSON list.
JOB_OUTPUTS = """
import json, os, sys
sys.path[:0] = [os.path.join(os.getcwd(), "perfbench"), os.path.join(os.getcwd(), "src")]
import run, tracing
workload, seed = sys.argv[1], int(sys.argv[2])
wl = run.make_workload(workload, seed)
rec = tracing.Recorder(False, wl.timing, False)
outputs = []
for i, spec in enumerate(wl.pool(run.pool_rng(workload, seed))):
    job = rec.job(i)
    wl.run(job, spec)
    outputs.append(job.outputs)
print(json.dumps(outputs))
"""


def outputs(root: str, workload: str, seed: int) -> tuple:
    """(output_digest, failed) of one run: the run record is the line before
    the result, which is the last line of stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record["output_digest"], result["failed"]


def job_outputs(root: str, workload: str, seed: int) -> list:
    """Each job's outputs, by pool index, from one pass in ``root``."""
    proc = subprocess.run([sys.executable, "-c", JOB_OUTPUTS, workload, str(seed)],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def print_differences(base: str, workload: str, seed: int) -> None:
    jobs = zip(job_outputs(base, workload, seed), job_outputs(os.getcwd(), workload, seed))
    for job, (a, b) in enumerate(jobs):
        for k, (x, y) in enumerate(itertools.zip_longest(a, b)):
            if x != y:
                print(f"  {workload} seed {seed} job {job} output {k}: base {x}, here {y}", flush=True)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    with tempfile.TemporaryDirectory() as base:
        archive = subprocess.run(["git", "archive", argv[0]], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        same = True
        for workload in workloads:
            for seed in SEEDS:
                a, b = outputs(base, workload, seed), outputs(os.getcwd(), workload, seed)
                same = same and a == b
                print(f"{workload} seed {seed}: base {a[0][:12]} failed {a[1]}, "
                      f"here {b[0][:12]} failed {b[1]}: {'same' if a == b else 'DIFFERENT'}", flush=True)
                if a[0] != b[0]:
                    print_differences(base, workload, seed)
    print("same outputs" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
