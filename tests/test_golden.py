"""Refactor safety net: committed grid CSVs and a pinned dispatch table.

The files under tests/golden/ were written by the code they guard. A change
that alters a random draw, a metered read, an oracle-call count, a verdict,
a dispatch tier or an UnsupportedRegimeError.max_beta shows up here as a
byte difference. Rewrite them (only for an intended change, said so in
CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
from math import isqrt
from pathlib import Path

import pytest

from gapedit.intmath import ceil_log2, iroot
from gapedit.harness import CSV_COLUMNS, GridConfig, grid_csv_text
from gapedit.reductions import ParameterError
from gapedit.testers import TesterConfig, UnsupportedRegimeError, plan_gap_dispatch

GOLDEN = Path(__file__).parent / "golden"

GRIDS = {
    # alpha = 2^15, beta = 2 at n = 2^16: the h = 1 tier
    "main_h1": GridConfig(
        n=(65536,), k=(2,), c=(15.0,), tester=("main",),
        family=("random-edits", "rotation"), trials=4, seed=3,
    ),
    "baseline_h1": GridConfig(
        n=(65536,), k=(2,), c=(15.0,), tester=("baseline",),
        family=("random-edits", "rotation"), h=1, trials=4, seed=3,
    ),
    # equality and multilevel tiers, and one UNSUPPORTED cell (k=16, c=1.5)
    "main_equality_small": GridConfig(
        n=(4096,), k=(0, 16), c=(1.5, 2.0), tester=("main", "equality"),
        trials=4, seed=3,
    ),
}


def blank_wall_time(text: str) -> str:
    idx = CSV_COLUMNS.index("wall_time_ns")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in csv.reader(io.StringIO(text)):
        if row[0] != "record":
            row[idx] = ""
        writer.writerow(row)
    return out.getvalue()


def grid_text(name: str) -> str:
    text, _ = grid_csv_text(GRIDS[name])
    return blank_wall_time(text)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_golden_grid_csv(name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    assert grid_text(name) == expected


# ---------------------------------------------------------------------------
# Dispatch table
# ---------------------------------------------------------------------------

DISPATCH_NS = (1 << 10, 1 << 16, 1 << 20, 1 << 100)
DISPATCH_HS = (None, 0, 1, 2, 3, 4, 5, 6)


def _alphas(n: int) -> list[int]:
    out = [1, 7, 64, 1 << 10, 1 << 15, 1 << 20, n // 2, n, 10**30, 10**40]
    return sorted({a for a in out if a <= n})


def _betas(n: int, alpha: int) -> list[int]:
    """Small and large betas plus both sides of each tier's max-beta boundary."""
    c = 336 * ceil_log2(n)
    edges = [isqrt(alpha // c), iroot(3, alpha * alpha // c**3)]
    for h in range(3, 7):
        edges.append(iroot(2 * (h + 1), alpha ** (2 * h) // c ** (h * (h + 1))))
    out = {0, 1, 2, 3, 10, 4 * 10**15, alpha // 10, alpha // 3, alpha, alpha + 1}
    out |= {e + d for e in edges for d in (-1, 0, 1)}
    return sorted(b for b in out if 0 <= b <= alpha + 1)


def dispatch_outcome(n: int, alpha: int, beta: int, h) -> str:
    try:
        tier = plan_gap_dispatch(n, alpha, beta, TesterConfig(h=h))
    except UnsupportedRegimeError as exc:
        return f"unsupported max_beta={exc.max_beta}"
    except ParameterError:
        return "parameter-error"
    return " ".join(str(v) for v in tier)


def dispatch_rows(n: int, h) -> list[str]:
    return [
        f"{n},{alpha},{beta},{'auto' if h is None else h},{dispatch_outcome(n, alpha, beta, h)}"
        for alpha in _alphas(n)
        for beta in _betas(n, alpha)
    ]


def _pinned_dispatch() -> dict[tuple[str, str], list[str]]:
    table: dict[tuple[str, str], list[str]] = {}
    lines = (GOLDEN / "dispatch.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        n, _, _, h, _ = line.split(",", 4)
        table.setdefault((n, h), []).append(line)
    return table


@pytest.mark.parametrize("n", DISPATCH_NS, ids=lambda n: f"n=2^{n.bit_length() - 1}")
@pytest.mark.parametrize("h", DISPATCH_HS, ids=lambda h: f"h={'auto' if h is None else h}")
def test_pinned_gap_dispatch(n, h):
    pinned = _pinned_dispatch()[(str(n), "auto" if h is None else str(h))]
    assert dispatch_rows(n, h) == pinned


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in GRIDS:
        (GOLDEN / f"{name}.csv").write_text(grid_text(name), encoding="utf-8")
    rows = ["n,alpha,beta,h,outcome"]
    for n in DISPATCH_NS:
        for h in DISPATCH_HS:
            rows.extend(dispatch_rows(n, h))
    (GOLDEN / "dispatch.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden()
