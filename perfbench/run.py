"""treeshift benchmark: seeded closed-loop batch workloads.

Run from the root of a treeshift checkout:

    python3 perfbench/run.py --workload broom-deep --seed 1 --seconds 25 --trace 0

One client in one process runs one job after another.  The seed fixes a pool
of job inputs; the timed phase runs whole passes over the pool, starting
another pass only while it is likely to end within ``--seconds``, so the
output digest of a seed does not depend on machine speed.  ``attempted`` and
``failed`` count the pool's jobs, each once, and the pool's shape fixes which
of them meet a known defect, so both are the same for every seed.  A job's
time is taken at a reference machine speed, which a calibration reads
between, and for some workloads inside, the job's library calls
(``tracing.Clock``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` first runs half the time untraced and then half traced, and
prints the per-layer metrics (span self times per job) and the tracing
overhead.  The last line of stdout is the result JSON; the line
before it is the full run record, also written to ``.bench_out/``.  See
``perfbench/README.md``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

import tracing  # noqa: E402

WORKLOADS = ("broom-deep", "oracle-dense", "model-tails", "cli-cold")
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# reported beside the others and carried by "attempted"/"failed"; it is 0 on
# a workload that meets no known defect, so it is not one of the bounded metrics
FAILED_RATIO = ("jobs_failed_ratio", "1")
CLASSIFY_CALLS = (
    "is_isometry", "is_quasinormal", "is_normal", "is_cohyponormal", "is_hyponormal",
    "is_p_hyponormal", "subnormal_on_T", "chex_on_T", "stieltjes_necessary", "ca_necessary",
)
SPAN_METRICS = (
    ["tree.materialize", "tree.validate", "shift.weight_sweep", "shift.norm",
     "shift.fredholm_data", "shift.domain_inclusion_criteria"]
    + ["classify." + c for c in CLASSIFY_CALLS]
    + ["measure.is_stieltjes", "measure.is_completely_alternating",
       "models.construct_subnormal", "models.construct_chex", "models.backward_extension",
       "oracle.truncate", "oracle.operator_norm", "oracle.selfcommutator_check",
       "oracle.power_selfcommutator_check", "oracle.kernel_dims", "cli.run"]
)
LAYERS = ("tree", "shift", "classify", "measure", "models", "oracle", "cli")
PER_LAYER = (
    [(s + ".ms", "ms") for s in SPAN_METRICS]
    + [("tree.vertices", "count"), ("tree.complete_ratio", "1"), ("classify.exact_ratio", "1"),
       ("oracle.matrix_n", "count"), ("oracle.dense_bytes", "B"), ("oracle.interior_ratio", "1"),
       ("cli.import_ms", "ms"), ("cli.startup_share", "1")]
    + [(layer + ".errors", "count") for layer in LAYERS]
    + [("trace.overhead_ratio", "1")]
)
PROBES = ("shift.weight_sweep", "cli.run")  # traced-only calls
SETUP_REPS = 9
IMPORT_REPS = 3
OUT_DIR = ".bench_out"
TAIL_PCT = 90


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the clock, and exit: how the run times its own set-up
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def make_workload(name: str, seed: int):
    import workloads  # imports treeshift, so only once src/ is on the path

    if name == "broom-deep":
        return workloads.BroomDeep()
    if name == "oracle-dense":
        return workloads.OracleDense()
    if name == "model-tails":
        return workloads.ModelTails()
    return workloads.CliCold(os.path.join(OUT_DIR, f"cli-cold-seed{seed}"))


def pool_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


class Phase:
    """The outcome of one timed phase: whole passes over the pool."""

    def __init__(self, wl, pool, traced: bool, seconds: float):
        self.rec = tracing.Recorder(traced, wl.timing, wl.timer)
        self.times: list = []  # per pass, per job: wall seconds
        self.scaled: list = []  # per pass, per job: seconds at the reference speed
        self.speed: dict = {}  # job id -> reference seconds per wall second
        self.pass_s: list = []
        self.failed_jobs = 0
        self.mismatched_jobs = 0
        self.failed_specs: set = set()  # pool indices of jobs that failed
        self.kinds: Counter = Counter()
        self.examples: dict = {}
        self.layer_errors: Counter = Counter()
        self.counters: Counter = Counter()
        digest = hashlib.sha256()
        clock = self.rec.clock
        perf = time.perf_counter
        start = perf()
        deadline = start + seconds
        jid = 0
        while True:
            t_pass = perf()
            row, scaled = [], []
            for i, spec in enumerate(pool):
                job = self.rec.job(jid)
                jid += 1
                clock.start()
                wl.run(job, spec)
                clock.stop()
                row.append(clock.wall)
                scaled.append(clock.scaled)
                self.speed[job.id] = clock.scaled / clock.wall
                self._account(job)
                if job.failed:
                    self.failed_specs.add(i)
                if not self.times:
                    for o in job.outputs:
                        digest.update(o.encode() + b"\n")
            self.times.append(row)
            self.scaled.append(scaled)
            self.pass_s.append(perf() - t_pass)
            # whole passes only; start one more if it is likely to end in time
            if perf() + statistics.median(self.pass_s) > deadline:
                break
        self.elapsed = perf() - start
        self.passes = len(self.times)
        self.jobs = self.passes * len(pool)
        # counted per job of the pool, not per job run, so that both are the
        # same for every seed and machine speed: the pool's shape fixes which
        # jobs meet a known defect (see workloads.py)
        self.attempted = len(pool)
        self.failed = len(self.failed_specs)
        self.digest = digest.hexdigest()

    def _account(self, job) -> None:
        for name, exc, msg in job.errors:
            kind = f"{name}:{exc}"
            self.kinds[kind] += 1
            self.examples.setdefault(kind, msg)
            self.layer_errors[name.split(".")[0]] += 1
        for kind, detail in job.mismatches:
            self.kinds[kind] += 1
            self.examples.setdefault(kind, detail)
            if kind.startswith("cli."):
                self.layer_errors["cli"] += 1
        if job.failed:
            self.failed_jobs += 1
        if any(k.startswith("check.") or k == "cli.stdout" for k, _ in job.mismatches):
            self.mismatched_jobs += 1
        self.counters.update(job.counters)

    def end_to_end(self) -> dict:
        """Job-time statistics that hold still on a machine whose speed changes.

        A job's time is taken at the reference speed (``tracing.Clock``).
        Throughput is pool size over the sum of the pool's jobs' median
        times over the passes.  p50 and the tail are percentiles over every
        job run: whole passes give each job of the pool the same weight
        however many passes the machine's speed allowed, and more runs make
        a steadier percentile than one median per job.  Wall-time figures
        are kept beside them.
        """
        med = [statistics.median(col) for col in zip(*self.scaled)]
        raw = [statistics.median(col) for col in zip(*self.times)]
        runs = [t for row in self.scaled for t in row]
        wall_runs = [t for row in self.times for t in row]
        tail = lambda xs: statistics.quantiles(xs, n=100, method="inclusive")[TAIL_PCT - 1]
        return {
            "jobs_per_s": len(med) / sum(med),
            "job_p50_ms": 1e3 * statistics.median(runs),
            "job_p50_samples": len(runs),
            "job_tail_ms": 1e3 * tail(runs),
            "job_tail_percentile": TAIL_PCT,
            "job_tail_samples": len(runs),
            "job_runs": self.jobs,
            "jobs_failed_ratio": self.failed / self.attempted,
            "job_runs_failed": self.failed_jobs,
            "wall_jobs_per_s": len(raw) / sum(raw),
            "wall_jobs_per_s_overall": self.jobs / self.elapsed,
            "wall_job_p50_ms": 1e3 * statistics.median(wall_runs),
            "wall_job_tail_ms": 1e3 * tail(wall_runs),
            "speed": sum(map(sum, self.scaled)) / sum(map(sum, self.times)),
            "failed_pool_jobs": sorted(self.failed_specs),
            "job_times_ms": [[round(1e3 * t, 3) for t in row] for row in self.times],
            "job_scaled_ms": [[round(1e3 * t, 3) for t in row] for row in self.scaled],
            "pass_s": self.pass_s,
        }


def import_ms() -> float:
    """Median time of `import treeshift.cli` in fresh interpreters, at the
    reference speed."""
    from workloads import CLI_ENV

    code = "import time; t = time.perf_counter(); import treeshift.cli; print(time.perf_counter() - t)"
    clock = tracing.Clock("spawn")
    vals = []
    for _ in range(IMPORT_REPS):
        clock.start()
        out = subprocess.run([sys.executable, "-c", code], env=CLI_ENV, capture_output=True,
                             text=True, timeout=60, check=True)
        clock.tick(force=True)
        vals.append(1e3 * float(out.stdout) * clock.scaled / clock.wall)
    return statistics.median(vals)


def per_layer(traced: Phase, untraced: Phase) -> dict:
    """Per-job means over the traced phase; span times at the reference
    speed, each scaled by its own job's speed."""
    njobs = traced.jobs
    spans = traced.rec.spans
    st = tracing.self_times(spans, traced.speed)
    dur = lambda names: sum((e - s) * traced.speed[j] for name, s, e, j, _ in spans if name in names)
    out = {s + ".ms": 1e3 * st.get(s, (0.0, 0))[0] / njobs for s in SPAN_METRICS}
    c = traced.counters
    ratio = lambda a, b: a / b if b else 0.0
    out["tree.vertices"] = c["tree.vertices"] / njobs
    out["tree.complete_ratio"] = ratio(c["tree.complete"], c["tree.vertices"])
    out["classify.exact_ratio"] = ratio(c["classify.exact"], c["classify.verdicts"])
    out["oracle.matrix_n"] = c["oracle.matrix_n"] / njobs
    out["oracle.dense_bytes"] = 16.0 * c["oracle.matrix_n_sq"] / njobs
    out["oracle.interior_ratio"] = ratio(c["oracle.interior"], c["oracle.matrix_n"])
    out["cli.import_ms"] = import_ms()
    proc = dur({"cli.process"})
    run = st.get("cli.run", (0.0, 0))[0]
    out["cli.startup_share"] = ratio(proc - run, proc)
    for layer in LAYERS:
        out[layer + ".errors"] = traced.layer_errors[layer] / traced.passes
    traced_mean = (sum(map(sum, traced.scaled)) - dur(PROBES)) / njobs
    untraced_mean = sum(map(sum, untraced.scaled)) / untraced.jobs
    out["trace.overhead_ratio"] = 1.0 - untraced_mean / traced_mean
    return out


def blas_info() -> dict:
    import numpy

    info = {"numpy": numpy.__version__, "openblas": None, "blas_threads": None}
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            cfg = lib.scipy_openblas_get_config64_
            cfg.restype = ctypes.c_char_p
            info["openblas"] = cfg().decode()
            info["blas_threads"] = int(lib.scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return info


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treeshift", "__init__.py")):
        print("perfbench: no src/treeshift here; run from the root of a treeshift checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    wl = make_workload(args.workload, args.seed)
    import_s = time.perf_counter() - T0
    pool = wl.pool(pool_rng(args.workload, args.seed))
    if args.setup_probe:
        print(repr(time.perf_counter()))
        return 0

    if args.trace:
        untraced = Phase(wl, pool, False, args.seconds / 2)
        traced = Phase(wl, pool, True, args.seconds / 2)
        phases = [untraced, traced]
    else:
        untraced = Phase(wl, pool, False, args.seconds)
        phases = [untraced]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # set-up = process start to the first timed job: interpreter start,
    # imports, inputs and reference outputs.  This process can start only
    # once, so it times fresh processes that stop there, and reports the
    # median at the reference speed (see tracing.Clock).  They run after the
    # peak memory of cli-cold's CLI children is read, so as not to count in it.
    probe = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    clock = tracing.Clock("spawn")
    setup_reps, setup_speeds = [], []
    for _ in range(SETUP_REPS):
        clock.start()
        t = time.perf_counter()
        out = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        setup_reps.append(float(out.stdout.split()[-1]) - t)
        clock.tick(force=True)
        setup_speeds.append(clock.scaled / clock.wall)
    setup_s = statistics.median(t * v for t, v in zip(setup_reps, setup_speeds))

    e2e = dict(untraced.end_to_end(), setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "load_model": "closed loop, 1 client, 1 process",
        "input_sizes": wl.sizes(pool),
        "end_to_end": e2e,
        "import_s": import_s,
        "wall_setup_s": statistics.median(setup_reps),
        "setup_reps_s": setup_reps,
        "setup_speeds": setup_speeds,
        "passes": untraced.passes,
        "failure_kinds_per_pass": {k: v / untraced.passes for k, v in sorted(untraced.kinds.items())},
        "failure_examples": untraced.examples,
        "output_digest": untraced.digest,
    }
    if args.trace:
        record["per_layer"] = per_layer(traced, untraced)
        record["traced_jobs_per_s"] = traced.jobs / sum(map(sum, traced.scaled))
        record["traced_passes"] = traced.passes
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in traced.rec.spans:
                fh.write(json.dumps(span) + "\n")
    if args.workload == "cli-cold":
        shutil.rmtree(wl.workdir, ignore_errors=True)

    for name, unit in END_TO_END + (FAILED_RATIO,):
        print(f"{args.workload} {name} = {e2e[name]:.6g} {unit}")
    print(f"{args.workload} job_p50 and job_tail (p{e2e['job_tail_percentile']}) over "
          f"{e2e['job_runs']} job runs ({untraced.passes} passes of {untraced.attempted} jobs); "
          f"times at the reference speed, machine at {e2e['speed']:.3f} of it")
    print(json.dumps(record, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": all(p.mismatched_jobs == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
