"""The four benchmark workloads as lists of operations.

An operation is one CLI experiment (run through ``cli.build_config`` and
``cli.run``) or one library call.  Each belongs to a size step; the
benchmark reports the time of every step as a scaling row.  A pass runs
the steps in the order listed here, growing sizes first, as a scaling
sweep does; the caches then hold the same entries whenever a step runs,
and peak memory does not depend on the seed.  The seed fixes the call
order within each step and, on the free-group operations, a relabeling of the generators
that is applied to the anchor letter and to the chain.  The relabeling
is a symmetry of the free group fixing the anchor's role, so every
verdict and exact value stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("boundary-index", "trace-audit", "window-sweep", "moebius-sweep")

# Commutator norms of criterion 06 and the thresholds it puts on them.
COMMUTATOR_KINDS = ("plain", "twisted", "log")
COMMUTATOR_MODES = (64, 128, 256, 512)
PLAIN_GROWTH_MIN = 2.0
FLAT_SPREAD_MAX = 1.1


@dataclass(frozen=True)
class Operation:
    """One timed call of a pass.

    ``key`` names the call in the record of expected values and stays the
    same under relabeling.  ``flags`` are the CLI parameters of an
    experiment; a commutator operation has ``experiment`` set to
    ``"commutator"`` and carries its kind and window in ``flags``.
    """

    key: str
    step: str
    experiment: str
    flags: dict[str, str] = field(default_factory=dict)


def _cli(step: str, experiment: str, **flags: object) -> Operation:
    text = {name: str(value) for name, value in flags.items()}
    shown = " ".join(f"{name}={value}" for name, value in text.items())
    return Operation(f"{experiment} {shown}", step, experiment, text)


def _commutators() -> list[Operation]:
    return [
        Operation(
            f"commutator {kind} M={modes}",
            f"M{modes}",
            "commutator",
            {"kind": kind, "M": str(modes)},
        )
        for modes in COMMUTATOR_MODES
        for kind in COMMUTATOR_KINDS
    ]


def _stages(count: int) -> str:
    return ":".join(["a1"] * count)


def operations(workload: str) -> list[Operation]:
    """Operations of one pass of the workload, in canonical order."""
    if workload == "boundary-index":
        return [
            _cli("d2L8", "counterexample", family="free_group", d=2, L=8),
            _cli("d2L9", "counterexample", family="free_group", d=2, L=9),
            _cli("d3L6", "counterexample", family="free_group", d=3, L=6),
        ]
    if workload == "trace-audit":
        chains = [(f"stages{count}", 2, _stages(count)) for count in range(1, 6)]
        chains += [("d2word4", 2, "a1.b2.a2.b1"), ("d3stages2", 3, "a1.b2:a1")]
        return [
            _cli(step, experiment, d=d, chain=chain)
            for step, d, chain in chains
            for experiment in ("heat-oracle", "pole-audit")
        ]
    if workload == "window-sweep":
        return [
            _cli("oracleL256", "heat-oracle", d=2, chain="a1", L=256, s="1.2,1.5"),
            _cli("d3L256", "damp-sweep", d=3, L=256, s="1.5,1.8"),
            _cli("d2L512", "damp-sweep", d=2, L=512),
        ]
    if workload == "moebius-sweep":
        return _commutators() + [
            _cli("moebiusM512", "counterexample", family="moebius", M=512),
            _cli("circleM512", "counterexample", family="circle", M=512),
            _cli("pvL2048", "pv-order", L=2048, M=256),
            _cli("summabilityM65536", "summability", M=65536),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def steps(workload: str) -> list[str]:
    """Size steps of the workload in canonical order, smallest first."""
    return list(dict.fromkeys(op.step for op in operations(workload)))


def _relabel_letter(name: str, mapping: dict[str, str]) -> str:
    starred = name.endswith("*")
    stem = name[:-1] if starred else name
    return mapping.get(stem, stem) + ("*" if starred else "")


def _relabel_chain(text: str, mapping: dict[str, str]) -> str:
    return ":".join(
        ".".join(_relabel_letter(token, mapping) for token in stage.split("."))
        for stage in text.split(":")
    )


def letter_relabeling(generators: int, rng: random.Random) -> dict[str, str]:
    """A random automorphism of the free group's alphabet.

    Generators are permuted and each may swap with its inverse, so the
    pair ``a_j``, ``b_j`` maps onto another inverse pair.
    """
    order = list(range(1, generators + 1))
    rng.shuffle(order)
    mapping = {}
    for source, target in enumerate(order, start=1):
        stems = ("a", "b") if rng.random() < 0.5 else ("b", "a")
        mapping[f"a{source}"] = f"{stems[0]}{target}"
        mapping[f"b{source}"] = f"{stems[1]}{target}"
    return mapping


def seeded_pass(workload: str, seed: int) -> list[Operation]:
    """The pass a seed gives: relabeled free-group operations, shuffled
    within each step, steps in canonical order."""
    rng = random.Random(f"{workload}:{seed}")
    relabelings = {d: letter_relabeling(d, rng) for d in (2, 3)}
    by_step: dict[str, list[Operation]] = {step: [] for step in steps(workload)}
    for op in operations(workload):
        flags = dict(op.flags)
        if flags.get("family", "free_group") == "free_group" and "d" in flags:
            mapping = relabelings[int(flags["d"])]
            flags["t"] = _relabel_letter(flags.get("t", "a1"), mapping)
            if "chain" in flags:
                flags["chain"] = _relabel_chain(flags["chain"], mapping)
        by_step[op.step].append(Operation(op.key, op.step, op.experiment, flags))
    ops = []
    for group in by_step.values():
        rng.shuffle(group)
        ops += group
    return ops
