"""levelsurf benchmark: one workload of ``surf`` subcommands, run in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload surface-h32 --seed 0 --seconds 30 --trace 0

One closed-loop client in this one process calls ``levelsurf.cli.main``
with the workload's command lines (see ``workloads.py``), each call with a
fresh output directory, and reads the results back from the CSV/JSON
files the CLI writes.  After a warm-up (one tiny call of each
subcommand) it runs whole rounds, one pass on each of the seed's input
draws per round: one round, then another while one more still fits in
``--seconds``.  So every draw gets the same number of passes, whatever
the load.

Every call's outputs are checked (``checks.py``), and every pass must
write the same bytes as the first pass on the same draw.  A call that
exits non-zero, fails a check or writes different bytes is a failed
operation.

``--trace 0`` prints the end-to-end metrics: ``run_s`` (the mean wall
time of the measured passes), ``peak_rss_mb`` (this process's high-water
mark), ``setup_s`` (median over fresh processes of importing levelsurf
plus the tiny calls) and ``ok_frac`` (operations that passed /
attempted).

``--trace 1`` alternates untraced and traced passes on the first draw and
prints the per-layer metrics of ``spans.py``: medians over the traced
passes, the CPU time of an untraced pass, and the tracing overhead.
Spans are written to ``.perfbench_work/spans-<workload>-s<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
import workloads

END_TO_END_METRICS = [
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("ok_frac", "fraction", "higher"),
]
SETUP_SAMPLES = 5       # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 120
BLAS_THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_levelsurf(root: str):
    """Import ``levelsurf.cli`` and ``levelsurf.io`` from ``root/src``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "levelsurf", "cli.py")):
        raise BenchError(f"no levelsurf sources under {src}; "
                         f"run from the repository root")
    sys.path.insert(0, src)
    import levelsurf.cli
    import levelsurf.io
    where = os.path.dirname(os.path.abspath(levelsurf.cli.__file__))
    if where != os.path.join(src, "levelsurf"):
        raise BenchError(f"levelsurf imported from {where}, not from {src}")
    return levelsurf.cli, levelsurf.io


def _blas_version(module) -> str:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def fingerprint(args, passes: list[list[list[str]]]) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [[" ".join(argv) for argv in calls] for calls in passes],
    }


def measure_setup(work: str, samples: int) -> list[float]:
    """Set-up seconds of ``samples`` fresh processes, one after another."""
    times = []
    for i in range(samples):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"),
                 os.path.join(os.getcwd(), "src"),
                 os.path.join(work, f"setup{i}")],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up probe ran over {SETUP_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Client:
    """Runs passes of one workload's calls and checks every output.

    ``passes[d]`` is the list of command lines of a pass on draw ``d``.
    """

    def __init__(self, cli, passes: list[list[list[str]]], work: str):
        self.cli = cli
        self.passes = passes
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._count = 0
        self._reference: dict[int, list[str]] = {}   # draw -> first digests
        self._checked: dict[tuple, list[str]] = {}   # (argv, digest) -> problems

    def _call(self, argv: list[str], tracer) -> tuple:
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), \
                    contextlib.redirect_stderr(log):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.span("cli.main", "cli"):
                        rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
        return rc, log.getvalue()

    def warm_up(self) -> None:
        for i, argv in enumerate(workloads.WARMUP_CALLS):
            out = os.path.join(self.work, f"warmup{i}")
            rc, log = self._call(argv + ["--out", out], None)
            if rc != 0:
                raise BenchError(f"warm-up call {argv} exited {rc}:\n{log}")

    def run_pass(self, draw: int, tracer=None) -> tuple[float, float]:
        """Run one pass on ``draw``; return its (wall, CPU) seconds.

        The outputs are checked after the clock stops.
        """
        calls = self.passes[draw]
        pass_dir = os.path.join(self.work, f"pass{self._count}")
        outs = [os.path.join(pass_dir, f"call{i}") for i in range(len(calls))]
        results = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for argv, out in zip(calls, outs):
            results.append(self._call(argv + ["--out", out], tracer))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        checked = [self._check(argv, out, rc)
                   for argv, out, (rc, _) in zip(calls, outs, results)]
        digests = [digest for digest, _ in checked]
        reference = self._reference.setdefault(draw, digests)
        for argv, (digest, problems), first, (_, log) in zip(
                calls, checked, reference, results):
            self.attempted += 1
            if digest != first:
                problems = problems + ["outputs differ from the first pass "
                                       "on this draw"]
            if problems:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"surf {' '.join(argv)}: "
                                         f"{'; '.join(problems)}\n{log}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        self._count += 1
        return wall, cpu

    def _check(self, argv: list[str], out: str, rc) -> tuple[str, list]:
        """(output digest, problems) of one call; checks run once per digest."""
        digest = checks.output_digest(out) if rc == 0 else ""
        key = (tuple(argv), digest)
        if key not in self._checked:
            self._checked[key] = checks.check_call(argv, out, rc)
        return digest, self._checked[key]


def _keep_going(elapsed: float, step_s: float, done: int,
                seconds: float) -> bool:
    """Run a first step, then another while one more still fits."""
    return done == 0 or elapsed + step_s <= seconds


def measure_untraced(client: Client, seconds: float) -> list[list[float]]:
    """Pass wall times by draw, from whole rounds of one pass per draw."""
    times: list[list[float]] = [[] for _ in client.passes]
    round_s = 0.0
    start = time.perf_counter()
    while _keep_going(time.perf_counter() - start, round_s, len(times[0]),
                      seconds):
        round_start = time.perf_counter()
        for draw, walls in enumerate(times):
            walls.append(client.run_pass(draw)[0])
        round_s = time.perf_counter() - round_start
    return times


def measure_traced(client: Client, cli, lsio, seconds: float,
                   tracer: spans.Tracer) -> dict[str, float]:
    """Alternate untraced and traced passes on the first draw; return the
    per-layer metrics."""
    untraced, cpu, traced, per_pass = [], [], [], []
    start = time.perf_counter()
    while _keep_going(time.perf_counter() - start,
                      (untraced[-1] + traced[-1]) if traced else 0.0,
                      len(traced), seconds):
        wall, cpu_s = client.run_pass(0)
        untraced.append(wall)
        cpu.append(cpu_s)
        first, book0 = len(tracer.spans), tracer.bookkeeping_s
        tracer.install(cli, lsio)
        try:
            wall = client.run_pass(0, tracer)[0]
        finally:
            tracer.restore()
        traced.append(wall)
        per_pass.append(spans.layer_metrics(
            tracer.spans[first:], first, wall,
            tracer.bookkeeping_s - book0))
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    metrics["proc.cpu_s"] = statistics.median(cpu)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.traced_run_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (metrics["trace.traced_run_s"]
                                   - metrics["trace.untraced_run_s"])
    return metrics


def _print_metrics(values: dict, table) -> dict:
    metrics = {}
    for name, unit, _ in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:44s} {values[name]:14.6g} {unit}")
    return metrics


def run(args) -> dict:
    passes = [workloads.pass_calls(args.workload, inputs)
              for inputs in workloads.draw_inputs(args.seed)]
    root = os.getcwd()
    cli, lsio = load_levelsurf(root)
    print("fingerprint " + json.dumps(fingerprint(args, passes),
                                      sort_keys=True))
    base = os.path.join(root, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if not args.trace:
            setup = measure_setup(work, SETUP_SAMPLES)
        client = Client(cli, passes, work)
        client.warm_up()
        if args.trace:
            tracer = spans.Tracer(f"{args.workload}-s{args.seed}")
            values = measure_traced(client, cli, lsio, args.seconds, tracer)
            tracer.write(os.path.join(
                base, f"spans-{args.workload}-s{args.seed}.jsonl"))
        else:
            times = measure_untraced(client, args.seconds)
            for draw, walls in enumerate(times):
                print(f"draw {draw}: {len(walls)} warmed passes, "
                      + ", ".join(f"{t:.4f}" for t in walls) + " s")
            print(f"setup_s over {len(setup)} fresh processes: "
                  + ", ".join(f"{t:.4f}" for t in setup))
            values = {
                "run_s": statistics.mean(t for walls in times for t in walls),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
                "ok_frac": (client.attempted - client.failed)
                / client.attempted,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in client.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"operations: {client.attempted} attempted, {client.failed} failed "
          f"(failed_frac {client.failed / client.attempted:.6g})")
    table = spans.PER_LAYER_METRICS if args.trace else END_TO_END_METRICS
    return {"correct": client.failed == 0, "attempted": client.attempted,
            "failed": client.failed, "metrics": _print_metrics(values, table)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
