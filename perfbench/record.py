"""Rewrite ``record.json``, the expected value of every operation.

Runs each operation of every workload once, in canonical order and with
no relabeling, and stores what it returned: the check rows of a CLI
experiment (name, computed, expected, passed) or a commutator norm.  The
benchmark compares every pass against this record, so run this only when
a change to the program is meant to change an exact value or a verdict.

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
from pathlib import Path

import child
import workloads


def main() -> None:
    record = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.operations(workload):
            record[op.key] = child.prepare(op)()
    path = Path(__file__).resolve().parent / "record.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
