"""Cost of the free-group windowed index against the window length L.

Usage, from the root of a checkout::

    python3 tools/vertex_curve.py
    python3 tools/vertex_curve.py --src ../other/src --points 2:6-10,3:4-7 --repeats 3

Each point runs ``cochain.compressed_translation_index`` for the letter a1
over the tail a1^inf (the windowed half of ``counterexample --family
free_group``) in a fresh interpreter, and reads the wall time of the call
and the peak RSS of that interpreter.  A point reports the minimum of its
repeats for both, next to the vertex count sum_{n <= L} (2d-1)^n that the
command line budgets.  The last line of standard output is one JSON object
with every point.
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
DEFAULT_POINTS = "2:6-12,3:4-8"


def _child(generators: int, length: int) -> None:
    from twistzeta.cochain import compressed_translation_index
    from twistzeta.words import fixed_point, free_group

    model = free_group(generators)
    start = time.perf_counter()
    index = compressed_translation_index(0, fixed_point(0), model, source_length=length)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"index": index, "seconds": seconds, "peak_rss_mb": peak}))


def _points(text: str) -> list[tuple[int, int]]:
    points = []
    for group in text.split(","):
        generators, lengths = group.split(":")
        low, _, high = lengths.partition("-")
        points += [(int(generators), n) for n in range(int(low), int(high or low) + 1)]
    return points


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="package sources to import")
    parser.add_argument("--points", default=DEFAULT_POINTS, help="d:Lmin-Lmax groups")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(*args.child)
        return 0
    rows = []
    for generators, length in _points(args.points):
        runs = []
        for _ in range(args.repeats):
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(generators), str(length)],
                env={"PYTHONPATH": args.src, "PATH": "/usr/bin:/bin"},
                capture_output=True,
                text=True,
                check=True,
            )
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        rate = 2 * generators - 1
        row = {
            "d": generators,
            "L": length,
            "vertices": sum(rate**n for n in range(length + 1)),
            "index": runs[0]["index"],
            "seconds": min(run["seconds"] for run in runs),
            "peak_rss_mb": min(run["peak_rss_mb"] for run in runs),
        }
        rows.append(row)
        print(
            f"d={generators} L={length:2d} vertices {row['vertices']:>9d}: "
            f"{row['seconds']:.3f} s, {row['peak_rss_mb']:.1f} MB (min of {args.repeats})",
            flush=True,
        )
    print(json.dumps({"src": args.src, "repeats": args.repeats, "points": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
