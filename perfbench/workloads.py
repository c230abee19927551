"""The CLI calls one pass of each workload makes.

Every call goes through ``hardylab.cli.main(argv)``, the public entry point
behind the ``hardylab`` command, so a pass measures exactly what a user of
the command line waits for.
"""

from __future__ import annotations

REFERENCE_SEED = 12345

HORIZON_CALLS = (
    ("check-knopp", "--p", "2", "--alpha", "0", "--U", "4"),
    ("check-2-20", "--p", "2", "--alpha", "0.5"),
    ("check-reverse", "--p", "0.25"),
    ("check-2-30", "--p", "3"),
    ("check-2-3", "--p", "2", "--alpha", "1.5"),
    ("norm-ratio", "--kind", "copson-tail", "--family", "power_decay",
     "--family-param", "3", "--p", "0.5"),
    ("extremal-search", "--kind", "weighted-mean", "--alpha", "1", "--p", "2"),
)

SCAN_PS = ("0.34", "0.45")


def _paper(seed: int) -> list[list[str]]:
    return [["verify-paper", "--n-max", "10000", "--format", "json",
             "--seed", str(seed)]]


def _horizon(seed: int) -> list[list[str]]:
    return [[*call, "--n-max", "1000000", "--format", "json", "--seed", str(seed)]
            for call in HORIZON_CALLS]


def _scan(seed: int) -> list[list[str]]:
    return [["redheffer-scan", "--p", p, "--format", "csv", "--seed", str(seed)]
            for p in SCAN_PS]


WORKLOADS = {
    "paper-1e4": _paper,
    "horizon-1e6": _horizon,
    "scan-csv": _scan,
}


def calls(workload: str, seed: int) -> list[list[str]]:
    """Argument lists of one pass; only ``--seed`` depends on the seed.

    The seed drives the random claim inputs of ``verify-paper``; the other
    commands echo it in their parameters and compute the same verdicts.
    """
    return WORKLOADS[workload](seed)


def call_key(argv: list[str]) -> str:
    """The call's identity in the reference: its arguments minus the seed."""
    i = argv.index("--seed")
    return " ".join(argv[:i] + argv[i + 2:])
