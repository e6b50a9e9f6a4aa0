"""Refactor safety net: committed grid CSVs, pinned gap and shifted dispatch
tables, and a digest of generated instances.

The files under tests/golden/ and GENERATE_DIGEST were written by the code
they guard. A change that alters a random draw, a generated symbol, a
metered read, an oracle-call count, a verdict, a dispatch tier or an
UnsupportedRegimeError's max_beta or max_gamma shows up here as a byte
difference. Rewrite them (only for an intended change, said so in
CHANGES.md) with the command below, which also prints the digest to pin:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import io
from math import isqrt
from pathlib import Path

import pytest

from gapedit.intmath import ceil_log2, iroot
from gapedit.harness import CSV_COLUMNS, FAMILIES, GridConfig, InstanceSpec, generate, grid_csv_text
from gapedit.metering import RandomStream
from gapedit.reductions import ParameterError
from gapedit.testers import (
    TesterConfig,
    UnsupportedRegimeError,
    plan_gap_dispatch,
    plan_shifted_dispatch,
)

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
    # the two families no other golden builds, next to random-edits
    "families_small": GridConfig(
        n=(4096,), k=(16,), c=(2.0,), tester=("main",),
        family=("random-edits", "padded-hard", "unrelated"), trials=4, seed=3,
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


def csv_diff(expected: str, got: str) -> list[str]:
    """One line per differing cell, naming its row and column, and one for a changed row count."""
    want = list(csv.reader(io.StringIO(expected)))
    have = list(csv.reader(io.StringIO(got)))
    keys = [CSV_COLUMNS.index(c) for c in ("record", "tester", "family", "k", "c", "trial")]
    out = []
    for line, (w, h) in enumerate(zip(want, have), start=1):
        for col in range(max(len(w), len(h))):
            a = w[col] if col < len(w) else "<none>"
            b = h[col] if col < len(h) else "<none>"
            if a != b:
                name = CSV_COLUMNS[col] if col < len(CSV_COLUMNS) else f"column {col}"
                row = " ".join(w[i] for i in keys if i < len(w))
                out.append(f"line {line} ({row}): {name} {a!r} -> {b!r}")
    if len(want) != len(have):
        out.append(f"row count {len(want)} -> {len(have)}")
    return out


def test_csv_diff_names_rows_and_columns():
    header = ",".join(CSV_COLUMNS)
    row = ["trial", "main", "rotation", "64", "2", "15.0"] + ["1"] * (len(CSV_COLUMNS) - 6)
    moved = list(row)
    moved[CSV_COLUMNS.index("queries_distinct")] = "2"

    def text(*rows):
        return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"

    assert csv_diff(text(row), text(row)) == []
    assert csv_diff(text(row), text(moved)) == [
        "line 2 (trial main rotation 2 15.0 1): queries_distinct '1' -> '2'"
    ]
    assert csv_diff(text(row, row), text(row)) == ["row count 3 -> 2"]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_golden_grid_csv(name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")
    diffs = csv_diff(expected, grid_text(name))
    assert not diffs, f"{name}.csv differs from the golden file:\n" + "\n".join(diffs)


# ---------------------------------------------------------------------------
# Generated symbols
# ---------------------------------------------------------------------------

# (n, k, c) points every family builds at; n = 8192 is past the exact-DP
# certificate limit, so its certificates are the construction bounds
GENERATE_POINTS = ((1024, 4, 2.0), (4096, 16, 2.0), (8192, 8, 1.5))
GENERATE_DIGEST = "fc8a6580312d67cccd3d39d3332b8c500b4e4ba5bf6cfc958522cd0a57a8525f"


def generate_digest() -> str:
    """sha256 over every (family, side, point)'s symbols and certificate:
    the grid goldens record counts, not symbols."""
    h = hashlib.sha256()
    for seed, (family, side, (n, k, c)) in enumerate(
        (f, s, p) for f in FAMILIES for s in ("yes", "no") for p in GENERATE_POINTS
    ):
        x, y, cert = generate(InstanceSpec(family, n, k, side=side, c=c), RandomStream(seed))
        h.update(repr((family, side, n, k, c, x, y, cert.lo, cert.hi)).encode())
    return h.hexdigest()


def test_generated_instances_are_pinned():
    assert generate_digest() == GENERATE_DIGEST


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


# ---------------------------------------------------------------------------
# Shifted dispatch table
# ---------------------------------------------------------------------------


def _gammas(n: int, alpha: int) -> list[int]:
    """Small gammas, both sides of alpha // 3, and of the depth-1 and depth-2 shifted gates."""
    L = ceil_log2(n)
    edges = [isqrt(alpha // (3024 * L)), iroot(3, alpha * alpha // (1008 * L) ** 3)]
    out = {0, 1, 2, alpha // 3, alpha // 3 + 1}
    out |= {e + d for e in edges for d in (-1, 0, 1)}
    return sorted(g for g in out if 0 <= g <= alpha + 1)


def shifted_dispatch_outcome(n: int, alpha: int, beta: int, gamma: int) -> str:
    try:
        tier = plan_shifted_dispatch(n, alpha, beta, gamma)
    except UnsupportedRegimeError as exc:
        return f"unsupported max_gamma={exc.max_gamma}"
    except ParameterError:
        return "parameter-error"
    return " ".join(str(v) for v in tier)


def shifted_dispatch_rows(n: int) -> list[str]:
    return [
        f"{n},{alpha},{beta},{gamma},{shifted_dispatch_outcome(n, alpha, beta, gamma)}"
        for alpha in _alphas(n)
        for gamma in _gammas(n, alpha)
        for beta in sorted({gamma, alpha})
    ]


@pytest.mark.parametrize("n", DISPATCH_NS, ids=lambda n: f"n=2^{n.bit_length() - 1}")
def test_pinned_shifted_dispatch(n):
    lines = (GOLDEN / "shifted_dispatch.csv").read_text(encoding="utf-8").splitlines()
    assert shifted_dispatch_rows(n) == [line for line in lines[1:] if line.split(",")[0] == str(n)]


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in GRIDS:
        (GOLDEN / f"{name}.csv").write_text(grid_text(name), encoding="utf-8")
    rows = ["n,alpha,beta,h,outcome"]
    for n in DISPATCH_NS:
        for h in DISPATCH_HS:
            rows.extend(dispatch_rows(n, h))
    (GOLDEN / "dispatch.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    rows = ["n,alpha,beta,gamma,outcome"]
    for n in DISPATCH_NS:
        rows.extend(shifted_dispatch_rows(n))
    (GOLDEN / "shifted_dispatch.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"GENERATE_DIGEST = {generate_digest()!r}")


if __name__ == "__main__":
    write_golden()
