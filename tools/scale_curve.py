"""Cost of the command-line experiments, the Moebius unitary and
closed-form assembly against their size parameters.

Usage, from the root of a checkout::

    python3 tools/scale_curve.py
    python3 tools/scale_curve.py --targets index --points 2:6-10,3:4-7 --repeats 3
    python3 tools/scale_curve.py --src ../other/src --targets unitary --modes 256,512
    python3 tools/scale_curve.py --targets window --lengths 256,1024,4096
    python3 tools/scale_curve.py --targets pv-modes,summability --modes 512,1024
    python3 tools/scale_curve.py --targets census --repeats 3
    python3 tools/scale_curve.py --targets assembly
    python3 tools/scale_curve.py --targets commutator --modes 256,512,1024,2048

Each point runs one target in a fresh interpreter, with one BLAS thread as
in the benchmark, and reads the wall time of the call and the peak RSS of
that interpreter; a point reports the minimum of its repeats for both, and
the BLAS thread count the interpreter ran with.

An experiment target runs the experiment's own runner,
``cli.EXPERIMENTS[experiment].runner``, on the parameters its flags parse
to.  The budgets are checked by ``cli.run``, not by the runner, so a curve
reaches past the budget it is used to set.  ``RUNS`` holds one row per run
of a target, with the option that lists its sizes in parentheses, or the
census's fixed ranks:

==============  ==============  ========================  ==================
target          experiment      fixed flags               flags of the sizes
==============  ==============  ========================  ==================
index           counterexample  --family free_group       --d --L (--points)
counterexample  counterexample  --family moebius          --M (--modes)
circle          counterexample  --family circle           --M (--modes)
window          heat-oracle     --d 2                     --L (--lengths)
window          damp-sweep      --d 2                     --L (--lengths)
window          damp-sweep      --d 3 --s 1.5,1.8         --L (--lengths)
pv-modes        pv-order        --L 512                   --M (--modes)
pv-sites        pv-order        --M 64                    --L (--lengths)
summability     summability                               --M (--modes)
census          pole-audit      --chain a1:a1             --d 10 ... 10^9
census          heat-oracle     --chain a1:a1 --s 12,13   --d 10 ... 10^9
census          damp-sweep      --L 16                    --d 10 ... 10^9
==============  ==============  ========================  ==================

The other flags keep their defaults.  A point's size fields are its flags
and the counts its experiment declares, ``cli.EXPERIMENTS[experiment].cost``
(vertices and cochain summands, mode radius, word-length steps, lattice
sites and window entries, modes).  Its outcome is the list
of every check's pass, and ``computed`` holds every check's computed value;
a point the runner refuses has the outcome false and its message under
``refused``.

Three targets are library calls:

- ``unitary``: ``circle.moebius_unitary(hyperbolic(1.0), M)`` at each M of
  ``--modes``; its truncation bound is the outcome.
- ``commutator``: the plain, twisted and log commutators of criterion 06,
  of ``CrossedElement.generator()`` under ``hyperbolic(1.0)``, at each M
  of ``--modes``, timed together after the unitary is cached.  Each
  window is dropped once its inner block is copied out, so the peak RSS
  holds one commutator at a time, as the benchmark does.  The spectral
  norms of the three inner blocks, computed after timing, are the
  outcome.
- ``assembly``: at d=2, for each of the fixed stage counts 1, 2, 3, 5 and
  8 of the chain ``a1``, ``traces.closed_form_heat_trace`` and
  ``closed_form_toeplitz_trace``, and ``poles_and_laurent`` of both
  traces' single-variable slices, timed together after one warm-up call
  of the same four.  The warm-up fills the chain's cached summary and the
  memo of pole extraction.  Each interpreter then times
  ``ASSEMBLY_CALLS`` calls of a few milliseconds, each after clearing the
  two closed-form caches, so the assembly of the closed forms and their
  pole data is timed, not a cache lookup, and reports the fastest.  The
  pole classes of the heat slice and of the word slice, as ``label parity
  order``, are the outcome.

The default run is ``index``, ``unitary``, ``counterexample``, ``circle``
and ``window``; name the others with ``--targets``, as their useful sizes
differ.  The last line of standard output is one JSON object with every
point.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TARGETS = ("index", "unitary", "counterexample", "circle", "window")
TARGETS = DEFAULT_TARGETS + (
    "pv-modes",
    "pv-sites",
    "summability",
    "census",
    "assembly",
    "commutator",
)
# The index points are a d-curve at two windows: d=39 and d=40 were the
# last and the first d that the per-letter word traces once refused, and
# from there only the cochain summands grow, like (log d)^4.
DEFAULT_POINTS = ",".join(f"{d}:1,{d}:12" for d in (2, 39, 40, 3000, 10**9))
DEFAULT_MODES = "256,512,1024,2048"
DEFAULT_LENGTHS = "256,512,1024,2048,4096,8192,16384"
# BLAS threads of every child, as the benchmark runs them: a child left at
# the default thread count contends with any other BLAS job on the machine.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One row per run of an experiment target: the target, the experiment, its
# fixed flags, the flags that each size sets, in order, and the argument
# that lists the sizes.
RUNS = (
    ("index", "counterexample", {"family": "free_group"}, ("d", "L"), "points"),
    ("counterexample", "counterexample", {"family": "moebius"}, ("M",), "modes"),
    ("circle", "counterexample", {"family": "circle"}, ("M",), "modes"),
    ("window", "heat-oracle", {"d": "2"}, ("L",), "lengths"),
    ("window", "damp-sweep", {"d": "2"}, ("L",), "lengths"),
    ("window", "damp-sweep", {"d": "3", "s": "1.5,1.8"}, ("L",), "lengths"),
    ("pv-modes", "pv-order", {"L": "512"}, ("M",), "modes"),
    ("pv-sites", "pv-order", {"M": "64"}, ("L",), "lengths"),
    ("summability", "summability", {}, ("M",), "modes"),
    ("census", "pole-audit", {"chain": "a1:a1"}, ("d",), "census_ranks"),
    ("census", "heat-oracle", {"chain": "a1:a1", "s": "12,13"}, ("d",), "census_ranks"),
    ("census", "damp-sweep", {"L": "16"}, ("d",), "census_ranks"),
)
# The census target's ranks d, fixed rather than an option.
CENSUS_RANKS = "10,100,1000,10000,100000,1000000,1000000000"
# The assembly target's stage counts of the chain a1, at d=2, and the calls
# timed in each interpreter.
ASSEMBLY_STAGES = (1, 2, 3, 5, 8)
ASSEMBLY_CALLS = 30


def _runs(target: str) -> list[tuple[str, str, dict[str, str], tuple[str, ...], str]]:
    return [row for row in RUNS if row[0] == target]


def _child(target: str, sizes: list[int]) -> None:
    import numpy as np
    from twistzeta import circle, ckalg, cli, traces, words

    if target == "assembly":
        (stages,) = sizes
        fields = {"d": 2, "stages": stages}
        model, chain = words.FreeGroup(2), [ckalg.Monomial((0,), (0,))] * stages

        def assemble() -> list[list[str]]:
            closed = (
                traces.closed_form_heat_trace(chain, 0, model),
                traces.closed_form_toeplitz_trace(chain, 0, model),
            )
            return [
                [
                    f"{pole.base_label} {pole.parity} {pole.order}"
                    for pole in traces.poles_and_laurent(traces.single_variable(trace))
                ]
                for trace in closed
            ]

        assemble()
        calls = []
        for _ in range(ASSEMBLY_CALLS):
            traces._canonical_heat_trace.cache_clear()
            traces._canonical_toeplitz_trace.cache_clear()
            start = time.perf_counter()
            outcome = assemble()
            calls.append(time.perf_counter() - start)
        result = {"outcome": outcome, "calls": ASSEMBLY_CALLS}
        seconds = min(calls)
    elif target == "unitary":
        (max_mode,) = sizes
        fields = {"M": max_mode}
        start = time.perf_counter()
        gamma = circle.MoebiusMap.hyperbolic(1.0)
        result = {"outcome": circle.moebius_unitary(gamma, max_mode).truncation}
        seconds = time.perf_counter() - start
    elif target == "commutator":
        (max_mode,) = sizes
        fields = {"M": max_mode}
        gamma, element = circle.MoebiusMap.hyperbolic(1.0), circle.CrossedElement.generator()
        circle.moebius_unitary(gamma, max_mode)
        kinds = (
            circle.dirac_commutator,
            circle.twisted_dirac_commutator,
            circle.log_dirac_commutator,
        )
        start = time.perf_counter()
        blocks = [
            circle.inner_block(commutator(element, gamma, max_mode)).copy()
            for commutator in kinds
        ]
        seconds = time.perf_counter() - start
        result = {"outcome": [float(np.linalg.norm(block, 2)) for block in blocks]}
    else:
        run, *values = sizes
        _, experiment, fixed, sized, _ = _runs(target)[run]
        flags = {**fixed, **dict(zip(sized, map(str, values)))}
        params = cli.build_config(experiment, flag_values=flags).parameters
        declared = cli.EXPERIMENTS[experiment]
        fields = {"experiment": experiment, **{flag: params[flag] for flag in flags}}
        fields.update((count.name, count.value) for count in declared.cost(params))
        start = time.perf_counter()
        try:
            checks = declared.runner(dict(params))
            result = {
                "outcome": [check.passed for check in checks],
                "computed": [check.computed for check in checks],
            }
        except cli.UsageError as err:
            result = {"outcome": False, "refused": str(err)}
        seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The most threads any of the BLAS libraries may start in this child.
    threads = max(int(os.environ[name]) for name in BLAS_VARIABLES)
    print(
        json.dumps(
            {
                "fields": fields,
                **result,
                "seconds": seconds,
                "peak_rss_mb": peak,
                "blas_threads": threads,
            }
        )
    )


def _sizes(text: str) -> list[tuple[int, ...]]:
    """Sizes from comma-separated groups of colon-separated values, the last
    of which may be a range: "2:6-8,3:4" is (2, 6), (2, 7), (2, 8), (3, 4)."""
    sizes = []
    for group in text.split(","):
        *fixed, last = group.split(":")
        low, _, high = last.partition("-")
        sizes += [(*map(int, fixed), n) for n in range(int(low), int(high or low) + 1)]
    return sizes


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
    parser.set_defaults(census_ranks=CENSUS_RANKS)
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
        if target in ("unitary", "commutator"):
            jobs += [(target, size) for size in _sizes(args.modes)]
        elif target == "assembly":
            jobs += [(target, (stages,)) for stages in ASSEMBLY_STAGES]
        else:
            jobs += [
                (target, (run, *size))
                for run, (*_, option) in enumerate(_runs(target))
                for size in _sizes(getattr(args, option))
            ]
    # No bytecode: a __pycache__ left in the measured tree would lower the
    # set-up time and peak memory of a later benchmark run on it.
    env = {"PYTHONPATH": args.src, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
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
        first = dict(runs[0])
        fields = first.pop("fields")
        row = {
            "target": target,
            **fields,
            **first,
            "seconds": min(run["seconds"] for run in runs),
            "peak_rss_mb": min(run["peak_rss_mb"] for run in runs),
        }
        rows.append(row)
        size = " ".join(f"{key}={value}" for key, value in fields.items())
        print(
            f"{target} {size}: {row['seconds']:.4g} s, "
            f"{row['peak_rss_mb']:.1f} MB (min of {args.repeats})",
            flush=True,
        )
    print(json.dumps({"src": args.src, "repeats": args.repeats, "points": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
