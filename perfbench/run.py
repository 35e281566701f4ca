"""Benchmark of twistzeta: time to verdict, set-up time, peak memory and
per-module spans, on four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace-audit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One client runs a closed loop: each pass starts when the previous one has
returned, and each pass runs in a fresh interpreter (``child.py``), so the
program's caches start empty and peak RSS belongs to that pass alone.  A
run first starts the interpreter several times only to import twistzeta
and build the pass's configs, for the set-up time, then runs passes until
the next one would end after ``--seconds``.  Each child runs pinned to
one core, and times are in seconds at a reference core speed that a
probe thread inside the child measures (see ``child.py``); the wall
seconds are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``,
``pass_s`` (median over passes), ``peak_rss_mb`` and ``verified_ratio``,
the share of operations that returned and matched ``record.json``.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics: calls, work counts and self time of each traced public
function, the two cache hit ratios, one ``scale.<workload>.<step>_s`` row
per size step of every workload (0 for steps of other workloads), and
``trace.overhead_ratio``.  The last line of standard output is one JSON
object; the lines before it print every metric with its unit, the run
header and the per-pass samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
PACKAGE = ROOT / "src" / "twistzeta"
SPANS_DIR = ROOT / ".perfbench"
RECORD = HERE / "record.json"

SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # every run, whatever --seconds says, ends before this
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
}
THRESHOLDS_KEY = "commutator thresholds of criterion 06"
TRACING_NOTE = (
    "window-sum time in damp-sweep counts under damp.free_group_summability.self_s, "
    "because the call passes through the private traces._heat_partial_sum"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def _core_speed_s() -> float:
    """Seconds a fixed interpreter loop takes on the current core."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(40_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best


def _fastest_core() -> int | None:
    """The allowed core that runs the probe loop fastest just now.

    Each child runs pinned to one core, so that its speed probe measures
    the core the pass runs on.  Cores of a shared host slow down and
    recover independently for seconds at a time, so the child gets the
    core that is fastest when it starts.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    timings = {}
    try:
        for core in allowed:
            os.sched_setaffinity(0, {core})
            timings[core] = _core_speed_s()
    finally:
        os.sched_setaffinity(0, allowed)
    return min(timings, key=timings.get)


class ChildFailed(RuntimeError):
    """A child interpreter exited abnormally or printed no result; the
    run then stops without a result."""


def _launch(args: list[str], timeout: float) -> dict:
    command = [sys.executable, str(HERE / "child.py"), *args]
    core = _fastest_core()
    pin = None if core is None else (lambda: os.sched_setaffinity(0, {core}))
    command += ["--launched-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            preexec_fn=pin,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"pass exceeded {timeout:.0f}s and was stopped") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"child exited {done.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def _matches(expected, actual) -> bool:
    """Exact for strings, ints and verdicts; floats to 1e-9 of their size."""
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(_matches(e, a) for e, a in zip(expected, actual))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        if not all(type(value) in (int, float) for value in (expected, actual)):
            return False
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=1e-9)
    return type(expected) is type(actual) and expected == actual


def _thresholds_hold(norms: dict[str, float]) -> bool:
    """Criterion 06: plain norms grow, twisted and log norms stay flat."""
    series = {
        kind: [norms[f"commutator {kind} M={modes}"] for modes in workloads.COMMUTATOR_MODES]
        for kind in workloads.COMMUTATOR_KINDS
    }
    growth = series["plain"][-1] / series["plain"][0]
    spreads = [max(series[kind]) / min(series[kind]) for kind in ("twisted", "log")]
    return growth >= workloads.PLAIN_GROWTH_MIN and all(
        spread <= workloads.FLAT_SPREAD_MAX for spread in spreads
    )


def verify(result: dict, record: dict) -> list[str]:
    """Failures of one pass: raised, refused or differing operations."""
    failures = []
    values = {}
    for op in result["ops"]:
        if op["error"] is not None:
            failures.append(f"{op['key']}: {op['error']}")
        elif op["key"] not in record:
            failures.append(f"{op['key']}: no recorded value")
        elif not _matches(record[op["key"]], op["value"]):
            failures.append(f"{op['key']}: differs from the record")
        else:
            values[op["key"]] = op["value"]
    needed = [
        f"commutator {kind} M={modes}"
        for modes in workloads.COMMUTATOR_MODES
        for kind in workloads.COMMUTATOR_KINDS
    ]
    if all(key in values for key in needed) and not _thresholds_hold(values):
        failures.append(f"{THRESHOLDS_KEY}: violated")
    return failures


def _operation_count(result: dict) -> int:
    """Operations of a pass, counting the threshold check of a full sweep."""
    commutators = sum(1 for op in result["ops"] if op["key"].startswith("commutator "))
    full = len(workloads.COMMUTATOR_KINDS) * len(workloads.COMMUTATOR_MODES)
    return len(result["ops"]) + (1 if commutators == full else 0)


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    """HEAD of the checkout's own git directory, read without running git,
    or "unknown" when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in PACKAGE.rglob("*.py")
        ),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "probe_reference_s": child.PROBE_REFERENCE_S,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Set-up probes and passes of one run, with the failures seen."""

    def __init__(self, workload: str, seed: int, steps: list[str] | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.steps = steps
        self.started = time.monotonic()
        self.record = json.loads(RECORD.read_text(encoding="utf-8"))
        self.setups: list[float] = []
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _args(self) -> list[str]:
        args = ["--workload", self.workload, "--seed", str(self.seed)]
        if self.steps:
            args += ["--steps", ",".join(self.steps)]
        return args

    def budget(self) -> float:
        """Seconds left before the hard limit of a run."""
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def probe(self) -> None:
        """Start an interpreter only to import and build configs."""
        result = _launch(self._args() + ["--setup-only"], self.budget())
        self.setups.append(result["setup_s"])

    def one_pass(self, traced: bool) -> float:
        """Run one pass, verify it, and return its wall time with launch."""
        launched = time.monotonic()
        args = self._args()
        spans = None
        if traced:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{self.workload}.npz"
            args += ["--spans", str(spans)]
        result = _launch(args, self.budget())
        self.attempted += _operation_count(result)
        self.failures += verify(result, self.record)
        self.setups.append(result["setup_s"])
        if traced:
            import tracing

            result["layers"] = tracing.summarize(str(spans))
            self.traced.append(result)
        else:
            self.passes.append(result)
        return time.monotonic() - launched


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Set-up probes, then passes until the next would end past the deadline."""
    deadline = run.started + seconds
    run.probe()  # untimed warm-up: compiles the package's bytecode once
    run.setups.clear()
    for _ in range(SETUP_PROBES):
        run.probe()
    last = {False: 0.0, True: 0.0}
    while True:
        traced = trace and len(run.traced) < len(run.passes)
        last[traced] = run.one_pass(traced)
        done = bool(run.passes) and (bool(run.traced) or not trace)
        upcoming = trace and len(run.traced) < len(run.passes)
        if done and time.monotonic() + last[upcoming] > deadline:
            return
        if run.budget() < 2 * max(last.values()):
            return


def _median_pass(results: list[dict]) -> dict:
    """The pass whose pass_s is the (lower) median."""
    ordered = sorted(results, key=lambda result: result["pass_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setups),
        "pass_s": statistics.median([result["pass_s"] for result in run.passes]),
        "peak_rss_mb": statistics.median([result["peak_rss_mb"] for result in run.passes]),
        "verified_ratio": (run.attempted - len(run.failures)) / run.attempted,
    }


def scale_rows(run: Run) -> dict[str, tuple[float, str]]:
    """Median seconds of each size step over the untraced passes; steps of
    other workloads read 0, since this run spends nothing on them."""
    rows = {}
    for workload in workloads.WORKLOADS:
        for step in workloads.steps(workload):
            samples = [
                sum(op["seconds"] for op in result["ops"] if op["step"] == step)
                if workload == run.workload
                else 0.0
                for result in run.passes
            ]
            rows[f"scale.{workload}.{step}_s"] = (statistics.median(samples), "s")
    return rows


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    import tracing

    # Layer figures all come from the traced pass of median length, with
    # self times scaled to the reference speed like that pass's pass_s,
    # so that they add up to no more than it.
    typical = _median_pass(run.traced)
    speed = typical["pass_s"] / typical["pass_wall_s"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.stat_names():
        if name.endswith("_s"):
            metrics[name] = (typical["layers"][name] * speed, "s")
        else:
            metrics[name] = (typical["layers"][name], "count")
    own = sum(value for name, (value, _) in metrics.items() if name.endswith(".self_s"))
    print(f"traced pass: pass_s {typical['pass_s']:.4f} s, self times add up to {own:.4f} s")
    for name, ratio in typical["cache_ratios"].items():
        metrics[name] = (ratio, "ratio")  # a removed cache is absent here
    metrics.update(scale_rows(run))
    untraced = _median_pass(run.passes)["pass_s"]
    metrics["trace.overhead_ratio"] = (typical["pass_s"] / untraced, "ratio")
    return metrics


def _print_samples(run: Run) -> None:
    print(f"setup samples ({len(run.setups)}): " + " ".join(f"{s:.4f}" for s in run.setups))
    for label, results in (("untraced", run.passes), ("traced", run.traced)):
        for key in ("pass_s", "pass_wall_s"):
            if results:
                shown = " ".join(f"{result[key]:.4f}" for result in results)
                print(f"{label} {key} samples ({len(results)}): {shown}")
    for failure in run.failures:
        print(f"FAILED {failure}")


def _result_line(run: Run, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def smoke() -> int:
    """Each workload at its smallest step, one traced pass each."""
    start = time.monotonic()
    runs = []
    for workload in workloads.WORKLOADS:
        run = Run(workload, seed=0, steps=workloads.steps(workload)[:1])
        run.one_pass(traced=True)
        runs.append(run)
        traced = run.traced[0]
        calls = sum(value for name, value in traced["layers"].items() if name.endswith(".calls"))
        print(
            f"smoke {workload} step {run.steps[0]}: "
            f"{traced['pass_s']:.3f} s traced, {calls} calls of traced functions"
        )
        for failure in run.failures:
            print(f"FAILED {workload}: {failure}")
    failures = sum(len(run.failures) for run in runs)
    print(
        json.dumps(
            {
                "correct": failures == 0,
                "attempted": sum(run.attempted for run in runs),
                "failed": failures,
                "metrics": {"smoke_s": {"value": time.monotonic() - start, "unit": "s"}},
            }
        )
    )
    return 0 if failures == 0 else 1


def benchmark(args: argparse.Namespace) -> int:
    """One run: header, samples and every metric, then the result line."""
    print("header " + json.dumps(run_header(args)))
    run = Run(args.workload, args.seed)
    measure(run, args.seconds, bool(args.trace))
    _print_samples(run)
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(run).items()}
    shown = dict(metrics)
    if args.trace:
        print(f"note: {TRACING_NOTE}")
        metrics = per_layer(run)
        shown.update(metrics)
    else:
        shown.update(scale_rows(run))
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(_result_line(run, metrics))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="twistzeta benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest step of each workload")
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no twistzeta sources under {PACKAGE}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    try:
        return smoke() if args.smoke else benchmark(args)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
