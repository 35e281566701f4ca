"""Cost of the free-group counterexample, the Moebius unitary, the circle
counterexamples, the windowed heat sums, pv-order and summability against
their size parameter.

Usage, from the root of a checkout::

    python3 tools/scale_curve.py
    python3 tools/scale_curve.py --targets index --points 2:6-10,3:4-7 --repeats 3
    python3 tools/scale_curve.py --src ../other/src --targets unitary --modes 256,512
    python3 tools/scale_curve.py --targets window --lengths 256,1024,4096
    python3 tools/scale_curve.py --targets pv-modes,summability --modes 512,1024

Each point runs one target in a fresh interpreter, with one BLAS thread as
in the benchmark, and reads the wall time of the call and the peak RSS of
that interpreter; a point reports the minimum of its repeats for both, and
the BLAS thread count the interpreter ran with.  The targets:

- ``index``: ``cochain.counterexample_verdict("free_group", generators=d,
  source_length=L)``, what ``counterexample --family free_group --d d --L
  L`` runs (the windowed index and the two cochain word traces), at each d
  and L of ``--points``, next to the vertex count that
  ``cli.FREE_GROUP_VERTEX_BUDGET`` bounds: sum_{n <= L} (2d-1)^n for the
  window plus 2 (2d-1)^3 for the word traces.  Whether the verdict passed
  is the outcome.
- ``unitary``: ``circle.moebius_unitary(hyperbolic(1.0), M)`` at each M of
  ``--modes``, next to the window size 2M + 1; its truncation bound is the
  outcome.
- ``counterexample`` and ``circle``: ``cochain.counterexample_verdict`` of
  the ``moebius`` and of the ``circle`` family at each M, their verdict as
  the outcome.  These are library calls, what ``counterexample --family
  moebius|circle --M M`` runs, so the curve also reaches past
  ``cli.CIRCLE_MODE_BUDGET``, which it is used to set.
- ``window``: at each L of ``--lengths``, what ``heat-oracle --d 2 --chain
  a1 --L L`` runs (the closed form and ``traces.brute_force_heat_trace``
  at each of its default exponents 2.5, 3.0 and 3.5, the largest deviation
  as the outcome), and what ``damp-sweep --L L`` runs at d=2 on its
  default exponents 1.0, 1.2 and at d=3 on the benchmark's 1.5, 1.8
  (``damp.free_group_summability`` over the sweep L/16, ..., L, its
  verdicts or refusal as the outcome).  Library calls again, so the curve
  reaches past ``cli.WINDOW_STEP_BUDGET``.
- ``pv-modes``, ``pv-sites`` and ``summability``: ``pv-order`` at each M of
  ``--modes`` (L=512), ``pv-order`` at each L of ``--lengths`` (M=64), and
  ``summability`` at each M of ``--modes``, all on their default exponents,
  whether every check passed as the outcome.  They run the command's own
  runner in the child, with the budget under measurement lifted there, so
  the curves reach past ``cli.PV_WINDOW_BUDGET``,
  ``cli.LATTICE_SITE_BUDGET`` and ``cli.SUMMABILITY_MODE_BUDGET``, which
  they are used to set.  They are not in the default run: their useful
  sizes differ from the other targets', so name them with ``--targets``.

The last line of standard output is one JSON object with every point.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TARGETS = ("index", "unitary", "counterexample", "circle", "window")
TARGETS = DEFAULT_TARGETS + ("pv-modes", "pv-sites", "summability")
DEFAULT_POINTS = "2:6-12,3:4-8"
DEFAULT_MODES = "256,512,1024,2048"
DEFAULT_LENGTHS = "256,512,1024,2048,4096,8192,16384"
# BLAS threads of every child, as the benchmark runs them: a child left at
# the default thread count contends with any other BLAS job on the machine.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The window target's runs: name, generators and exponents.
WINDOW_RUNS = (
    ("heat-oracle", 2, (2.5, 3.0, 3.5)),
    ("damp-sweep", 2, (1.0, 1.2)),
    ("damp-sweep", 3, (1.5, 1.8)),
)


def _child(target: str, sizes: list[int]) -> None:
    from twistzeta import circle, ckalg, cli, cochain, damp, traces, words

    if target in ("pv-modes", "pv-sites", "summability"):
        (size,) = sizes
        cli.PV_WINDOW_BUDGET = cli.LATTICE_SITE_BUDGET = cli.SUMMABILITY_MODE_BUDGET = math.inf
        if target == "summability":
            runner, params = cli._run_summability, {"s": [0.5, 1.0, 2.0], "M": size}
        else:
            max_mode, length = (size, 512) if target == "pv-modes" else (64, size)
            runner = cli._run_pv_order
            params = {"s": 1.0, "eps": [0.4, 0.7], "M": max_mode, "L": length}
        start = time.perf_counter()
        outcome = all(check.passed for check in runner(params))
    elif target == "window":
        run, length = sizes
        experiment, generators, grid = WINDOW_RUNS[run]
        model, anchor = words.FreeGroup(generators), 0
        start = time.perf_counter()
        if experiment == "heat-oracle":
            chain = [ckalg.Monomial((0,), (0,))]
            closed = traces.closed_form_heat_trace(chain, anchor, model)
            outcome = max(
                abs(closed.evaluate([s]).real - oracle.value) / abs(oracle.value)
                for s in grid
                for oracle in [traces.brute_force_heat_trace(chain, anchor, model, [s], length)]
            )
        else:
            sweep = [length // 16, length // 8, length // 4, length // 2, length]
            try:
                outcome = damp.free_group_summability(model, anchor, grid, sweep).verdicts
            except ValueError as err:
                outcome = f"refused: {err}"
    elif target == "index":
        generators, length = sizes
        start = time.perf_counter()
        outcome = cochain.counterexample_verdict(
            "free_group", generators=generators, source_length=length
        ).passed
    elif target == "unitary":
        (max_mode,) = sizes
        start = time.perf_counter()
        gamma = circle.MoebiusMap.hyperbolic(1.0)
        outcome = circle.moebius_unitary(gamma, max_mode).truncation
    else:
        (max_mode,) = sizes
        family = "circle" if target == "circle" else "moebius"
        start = time.perf_counter()
        outcome = cochain.counterexample_verdict(family, max_mode=max_mode).passed
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The most threads any of the BLAS libraries may start in this child.
    threads = max(int(os.environ[name]) for name in BLAS_VARIABLES)
    print(
        json.dumps(
            {"outcome": outcome, "seconds": seconds, "peak_rss_mb": peak, "blas_threads": threads}
        )
    )


def _points(text: str) -> list[tuple[int, int]]:
    points = []
    for group in text.split(","):
        generators, lengths = group.split(":")
        low, _, high = lengths.partition("-")
        points += [(int(generators), n) for n in range(int(low), int(high or low) + 1)]
    return points


def _size_fields(target: str, sizes: tuple[int, ...]) -> dict[str, object]:
    if target == "window":
        run, length = sizes
        experiment, generators, grid = WINDOW_RUNS[run]
        return {"experiment": experiment, "d": generators, "s": list(grid), "L": length}
    if target == "pv-sites":
        (length,) = sizes
        return {"L": length, "sites": (8 << ((length // 8).bit_length() - 1)) + 1}
    if target == "summability":
        (max_mode,) = sizes
        return {"M": max_mode, "modes": 2 * max_mode + 1}
    if target == "index":
        generators, length = sizes
        rate = 2 * generators - 1
        vertices = sum(rate**n for n in range(length + 1)) + 2 * rate**3
        return {"d": generators, "L": length, "vertices": vertices}
    (max_mode,) = sizes
    return {"M": max_mode, "window": 2 * max_mode + 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="package sources to import")
    parser.add_argument(
        "--targets", default=",".join(DEFAULT_TARGETS), help="comma-separated targets"
    )
    parser.add_argument("--points", default=DEFAULT_POINTS, help="d:Lmin-Lmax groups of index")
    parser.add_argument("--modes", default=DEFAULT_MODES, help="comma-separated M of the rest")
    parser.add_argument(
        "--lengths", default=DEFAULT_LENGTHS, help="comma-separated L of window and pv-sites"
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child[0], [int(size) for size in args.child[1:]])
        return 0
    targets = args.targets.split(",")
    unknown = sorted(set(targets) - set(TARGETS))
    if unknown:
        parser.error(f"unknown targets {', '.join(unknown)}; known: {', '.join(TARGETS)}")
    jobs: list[tuple[str, tuple[int, ...]]] = []
    for target in targets:
        if target == "index":
            jobs += [(target, point) for point in _points(args.points)]
        elif target == "window":
            lengths = [int(text) for text in args.lengths.split(",")]
            jobs += [(target, (run, n)) for run in range(len(WINDOW_RUNS)) for n in lengths]
        elif target == "pv-sites":
            jobs += [(target, (int(text),)) for text in args.lengths.split(",")]
        else:
            jobs += [(target, (int(text),)) for text in args.modes.split(",")]
    env = {"PYTHONPATH": args.src, "PATH": "/usr/bin:/bin"}
    env.update((name, str(BLAS_THREADS)) for name in BLAS_VARIABLES)
    rows = []
    for target, sizes in jobs:
        runs = []
        for _ in range(args.repeats):
            done = subprocess.run(
                [sys.executable, __file__, "--child", target, *map(str, sizes)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        fields = _size_fields(target, sizes)
        row = {
            "target": target,
            **fields,
            "outcome": runs[0]["outcome"],
            "seconds": min(run["seconds"] for run in runs),
            "peak_rss_mb": min(run["peak_rss_mb"] for run in runs),
            "blas_threads": runs[0]["blas_threads"],
        }
        rows.append(row)
        size = " ".join(f"{key}={value}" for key, value in fields.items())
        print(
            f"{target} {size}: {row['seconds']:.3f} s, "
            f"{row['peak_rss_mb']:.1f} MB (min of {args.repeats})",
            flush=True,
        )
    print(json.dumps({"src": args.src, "repeats": args.repeats, "points": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
