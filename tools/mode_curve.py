"""Cost of the Moebius unitary and the circle counterexamples against M.

Usage, from the root of a checkout::

    python3 tools/mode_curve.py
    python3 tools/mode_curve.py --src ../other/src --modes 256,512 --repeats 3

Each point runs one target in a fresh interpreter and reads the wall time
of the call and the peak RSS of that interpreter.  The targets are
``circle.moebius_unitary(hyperbolic(1.0), M, 8M)`` (``unitary``, its
defect as the outcome) and ``cochain.counterexample_verdict`` of the
``moebius`` family (``counterexample``) and of the ``circle`` family
(``circle``), their verdict as the outcome.  The verdicts are library calls,
what ``counterexample --family moebius|circle --M M`` runs, so the curve
also reaches past ``cli.CIRCLE_MODE_BUDGET``, which it is used to set.  A
point reports the minimum of its repeats for both, next to the window size
2M + 1.  The last line of standard output is one JSON object with every
point.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGETS = ("unitary", "counterexample", "circle")


def _child(target: str, max_mode: int) -> None:
    from twistzeta import circle, cochain

    start = time.perf_counter()
    if target == "unitary":
        gamma = circle.MoebiusMap.hyperbolic(1.0)
        outcome = circle.moebius_unitary(gamma, max_mode, 8 * max_mode).defect
    else:
        family = "circle" if target == "circle" else "moebius"
        outcome = cochain.counterexample_verdict(family, max_mode=max_mode).passed
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"outcome": outcome, "seconds": seconds, "peak_rss_mb": peak}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="package sources to import")
    parser.add_argument("--modes", default="256,512,1024,2048", help="comma-separated M")
    parser.add_argument("--targets", default=",".join(TARGETS), help="comma-separated targets")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child[0], int(args.child[1]))
        return 0
    rows = []
    for target in args.targets.split(","):
        for max_mode in (int(text) for text in args.modes.split(",")):
            runs = []
            for _ in range(args.repeats):
                done = subprocess.run(
                    [sys.executable, __file__, "--child", target, str(max_mode)],
                    env={"PYTHONPATH": args.src, "PATH": "/usr/bin:/bin"},
                    capture_output=True,
                    text=True,
                    check=True,
                )
                runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            row = {
                "target": target,
                "M": max_mode,
                "window": 2 * max_mode + 1,
                "outcome": runs[0]["outcome"],
                "seconds": min(run["seconds"] for run in runs),
                "peak_rss_mb": min(run["peak_rss_mb"] for run in runs),
            }
            rows.append(row)
            print(
                f"{target} M={max_mode:5d}: {row['seconds']:.3f} s, "
                f"{row['peak_rss_mb']:.1f} MB (min of {args.repeats})",
                flush=True,
            )
    print(json.dumps({"src": args.src, "repeats": args.repeats, "points": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
