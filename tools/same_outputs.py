"""Check that the benchmark's per-job outputs match those of a base revision.

Run from the root of a treeshift git checkout:

    python3 tools/same_outputs.py BASE_REF

Exports the committed files of BASE_REF (any git revision) into a temporary
directory, then runs ``python3 perfbench/run.py --workload W --seed S
--seconds 1`` there and in this checkout, for every workload in
``BENCHMARK.json`` and seeds 1-3.  Exits 0 when every pair of runs gives the
same ``output_digest`` and ``failed`` count, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

SEEDS = (1, 2, 3)


def outputs(root: str, workload: str, seed: int) -> tuple:
    """(output_digest, failed) of one run: the run record is the line before
    the result, which is the last line of stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return record["output_digest"], result["failed"]


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
    print("same outputs" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
