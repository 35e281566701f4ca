"""One pass of one workload in a fresh interpreter.

Run by ``run.py``.  The child imports twistzeta, builds the pass's
configs, reports the set-up time since its launch, runs every operation
in the seeded order, and prints one JSON line with the timings, the peak
RSS of its own process and each operation's outcome.  With ``--spans
PATH`` it times the listed public functions and writes their spans to
PATH when the pass ends.

Cores of a shared host run slower for seconds at a time when a
neighbour is busy.  A probe thread therefore times a fixed loop of exact
rational arithmetic, the program's own staple, in its own CPU time every
few milliseconds on the same core as the pass.  Every interval is
reported twice: as wall seconds, and as seconds at the reference speed,
the wall time multiplied by the mean of ``PROBE_REFERENCE_S / probe``
over the probes taken in it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))

import workloads  # noqa: E402

# CPU seconds of one probe loop at the usual speed of a core of a
# 2-vCPU Intel Xeon host with Python 3.11; it only sets the scale.
PROBE_REFERENCE_S = 3.0e-4
PROBE_INTERVAL_S = 0.02
PROBE_TERMS = 60


class SpeedProbe(threading.Thread):
    """Times a fixed loop every ``PROBE_INTERVAL_S`` until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PROBE_INTERVAL_S):
            stamp = time.monotonic()
            start = time.thread_time()
            total = Fraction(0)
            for term in range(1, PROBE_TERMS):
                total += Fraction(1, term)
            self.samples.append((stamp, time.thread_time() - start))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall seconds of [start, end] scaled to the reference speed.

        The probes are evenly spaced, so the mean of their speeds weighs
        each stretch of the interval by its length.  Uses the probes taken
        inside the interval, or the five nearest to it when it holds fewer
        than three.
        """
        inside = [cost for stamp, cost in self.samples if start <= stamp <= end]
        if len(inside) < 3:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [cost for _, cost in nearest[:5]]
        return (end - start) * statistics.mean(PROBE_REFERENCE_S / cost for cost in inside)


def prepare(op: workloads.Operation):
    """The call of one operation, with its config built ahead of the pass.

    The first call imports the program, which is part of the set-up time.
    """
    import numpy as np
    from twistzeta import circle, cli

    if op.experiment == "commutator":
        modes = int(op.flags["M"])
        commutator = {
            "plain": circle.dirac_commutator,
            "twisted": circle.twisted_dirac_commutator,
            "log": circle.log_dirac_commutator,
        }[op.flags["kind"]]

        def norm() -> float:
            matrix = commutator(
                circle.CrossedElement.generator(),
                circle.MoebiusMap.hyperbolic(1.0),
                modes,
                8 * modes,
            )
            return float(np.linalg.norm(circle.inner_block(matrix), 2))

        return norm
    config = cli.build_config(op.experiment, flag_values=op.flags)

    def experiment() -> list[list[object]]:
        report = cli.run(config)
        return [
            [check.name, check.computed, check.expected, check.passed]
            for check in report.checks
        ]

    return experiment


def _cache_ratios() -> dict[str, float]:
    """Hit ratios of the program's two caches; an absent cache is skipped."""
    from twistzeta import circle, traces

    ratios = {}
    for name, owner, attribute in (
        ("traces.chain_summary.hit_ratio", traces, "_chain_summary"),
        ("circle.unitary.hit_ratio", circle, "_unitary_cached"),
    ):
        info = getattr(getattr(owner, attribute, None), "cache_info", None)
        if info is None:
            continue
        stats = info()
        lookups = stats.hits + stats.misses
        ratios[name] = stats.hits / lookups if lookups else 0.0
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--steps", default="", help="comma-separated steps; all if empty")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    wanted = {step for step in args.steps.split(",") if step}
    ops = [
        op
        for op in workloads.seeded_pass(args.workload, args.seed)
        if not wanted or op.step in wanted
    ]
    calls = [prepare(op) for op in ops]
    launched = args.launched_ns / 1e9
    setup_end = time.monotonic()
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": probe.reference_seconds(launched, setup_end)}))
        return 0

    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()

    outcomes = []
    pass_start = time.monotonic()
    for op, call in zip(ops, calls):
        start = time.monotonic()
        try:
            value, error = call(), None
        except Exception as err:  # noqa: BLE001 - a failed call is a counted outcome
            value, error = None, f"{type(err).__name__}: {err}"
        outcomes.append((op, start, time.monotonic(), value, error))
    pass_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.stop()

    if recorder is not None:
        recorder.uninstall()
        recorder.write(args.spans)
    print(
        json.dumps(
            {
                "setup_s": probe.reference_seconds(launched, setup_end),
                "setup_wall_s": setup_end - launched,
                "pass_s": probe.reference_seconds(pass_start, pass_end),
                "pass_wall_s": pass_end - pass_start,
                "peak_rss_mb": peak_rss_mb,
                "cache_ratios": _cache_ratios(),
                "ops": [
                    {
                        "key": op.key,
                        "step": op.step,
                        "seconds": probe.reference_seconds(start, end),
                        "wall_s": end - start,
                        "value": value,
                        "error": error,
                    }
                    for op, start, end, value, error in outcomes
                ],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
