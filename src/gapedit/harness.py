"""Instance generation, experiment orchestration, adjudication, CSV emission.

The CSV schema is fixed (v1): a header row followed by `trial` rows (one per
tester invocation) and one `summary` row per grid cell. A trial's truth is
its instance's construction certificate classified at (alpha, beta). Reruns
with the same config and seed are byte-identical except for the wall_time_ns
column.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from itertools import product
from statistics import mean, median
from typing import Iterable, Optional

from .metering import MeteredString, RandomStream
from .reductions import ParameterError, multilevel_reduce, oracle_call_tally, single_level_reduce
from .strings import (
    EXCEEDS,
    GAP,
    NO,
    YES,
    GapInstance,
    ed_exact,
    gap_ed_banded,
)
from .testers import TesterConfig, baseline_gap, equality_test, main_gap, one_sided_passes

@dataclass(frozen=True)
class TrialRecord:
    """One experiment outcome, serialized as a `trial` CSV row.

    Its fields, in order, are the trial columns of the CSV schema.
    """

    tester: str
    family: str
    n: int
    k: int
    c: float
    h: Optional[int]
    delta: float
    seed: int
    trial: int
    verdict: str = ""  # YES/NO, empty when the trial could not run
    truth: str = ""  # YES/NO/GAP, empty when the instance could not be built
    queries_total: int = 0
    queries_distinct: int = 0
    oracle_calls: int = 0
    wall_time_ns: int = 0
    status: str = "ok"

    def as_row(self) -> dict:
        return asdict(self)


# A summary row fills the cell's key, status and mean wall_time_ns among the
# trial columns, and the four columns after them.
CSV_COLUMNS = [
    "record",
    *(f.name for f in dataclass_fields(TrialRecord)),
    "yes_error",
    "no_error",
    "mean_queries",
    "median_queries",
]

FAMILIES = ("random-edits", "rotation", "padded-hard", "unrelated")

_EXACT_CERT_LIMIT = 4096  # up to here certificates are recomputed by exact DP


class UnsatisfiableSpecError(ValueError):
    """The requested instance family cannot be built at these parameters."""


def ladder_alpha(k: int, c: float) -> int:
    """The NO threshold alpha = int(k**c) of a (k, c) grid point.

    The power is a float power, as in every recorded CSV. A negative k, a
    NaN c, a zero k with c < 0, and a k or k**c past the float range raise
    UnsatisfiableSpecError, so the grid records an unsupported cell.
    """
    if k < 0:
        raise UnsatisfiableSpecError(f"alpha = k^c needs k >= 0, got k={k}")
    if math.isnan(c):  # 1**nan is 1.0, any other k**nan fails int()
        raise UnsatisfiableSpecError(f"alpha = k^c is undefined at c={c}")
    try:
        return int(k**c)
    except OverflowError:
        raise UnsatisfiableSpecError(
            f"alpha = k^c is past the float range at c={c} and a {len(str(k))}-digit k"
        ) from None
    except ZeroDivisionError:
        raise UnsatisfiableSpecError(f"alpha = k^c is undefined at k=0, c={c}") from None


@dataclass(frozen=True)
class TruthCert:
    """Certified bounds lo <= ed_exact(x, y) <= hi."""

    lo: int
    hi: int

    def classify(self, alpha: int, beta: int) -> Optional[str]:
        if self.hi <= beta:
            return YES
        if self.lo > alpha:
            return NO
        if self.lo > beta and self.hi <= alpha:
            return GAP
        return None


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int
    k: int
    alphabet_size: int = 1 << 32
    side: str = "yes"  # random-edits / padded-hard: which suite to plant
    c: float = 2.0  # padded-hard: gap exponent fixing the core scale

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsatisfiableSpecError(f"unknown family {self.family!r}")
        if self.n < 1 or self.k < 0 or self.alphabet_size < 2:
            raise UnsatisfiableSpecError("need n >= 1, k >= 0, alphabet >= 2")
        if self.side not in ("yes", "no"):
            raise UnsatisfiableSpecError("side must be 'yes' or 'no'")


def _plant_substitutions(
    x: list[int], count: int, alphabet: int, rs: RandomStream, fresh_base: Optional[int]
) -> list[int]:
    """Substitute `count` distinct positions. With fresh_base, position i gets
    the symbol fresh_base + i (absent from x), making the bag-distance bound
    equal to the planted count."""
    n = len(x)
    y = list(x)
    chosen: set[int] = set()
    while len(chosen) < count:
        # each draw adds at most one position, so no round draws past where
        # one draw at a time would stop: same values, same final state
        chosen.update(rs.uniform_indices(n, count - len(chosen)))
    for idx, pos in enumerate(sorted(chosen)):
        if fresh_base is not None:
            y[pos] = fresh_base + idx
        else:
            while True:
                sym = rs.uniform_index(max(2, alphabet))
                if sym != y[pos]:
                    y[pos] = sym
                    break
    return y


def _plant(
    x: list[int], spec: InstanceSpec, fresh_base: int, rs: RandomStream
) -> tuple[list[int], TruthCert]:
    """The edited copy of x for spec.side and its certificate: YES plants
    min(k, |x|) substitutions, NO plants min(|x|, alpha + 1 + max(1, k))
    fresh symbols from fresh_base on, with alpha = ladder_alpha(k, c)."""
    if spec.side == "yes":
        edits = min(spec.k, len(x))
        return _plant_substitutions(x, edits, spec.alphabet_size, rs, None), TruthCert(0, edits)
    planted = min(len(x), ladder_alpha(spec.k, spec.c) + 1 + max(1, spec.k))
    y = _plant_substitutions(x, planted, spec.alphabet_size, rs, fresh_base)
    return y, TruthCert(planted, planted)


def generate(spec: InstanceSpec, rs: RandomStream) -> tuple[list[int], list[int], TruthCert]:
    """Build one instance of the requested family plus a truth certificate.

    Certificates below the exact-DP limit are recomputed by ed_exact; above
    it they come from construction bounds (planted-edit counts upward,
    disjoint-symbol bag distance downward).
    """
    x, y, cert = _generate_raw(spec, rs)
    if spec.n <= _EXACT_CERT_LIMIT:
        d = ed_exact(x, y)
        if not cert.lo <= d <= cert.hi:
            raise AssertionError(f"certificate {cert} violated by exact distance {d}")
        cert = TruthCert(d, d)
    return x, y, cert


def _generate_raw(spec: InstanceSpec, rs: RandomStream) -> tuple[list[int], list[int], TruthCert]:
    n, k, a = spec.n, spec.k, spec.alphabet_size
    fam = spec.family

    if fam == "unrelated":
        half = a // 2
        if half < 1:
            raise UnsatisfiableSpecError("unrelated needs alphabet >= 2")
        x = rs.child("x").symbols(n, half)
        y = [half + s for s in rs.child("y").symbols(n, half)]
        return x, y, TruthCert(n, n)

    if fam == "rotation":
        s = k
        if not 0 <= s <= n // 2:
            raise UnsatisfiableSpecError(f"rotation needs 0 <= s <= n/2, got s={s}")
        if a < n:
            raise UnsatisfiableSpecError("rotation needs alphabet_size >= n")
        x = list(range(n))
        shuf = rs.child("shuffle")
        for i in range(n - 1, 0, -1):
            j = shuf.uniform_index(i + 1)
            x[i], x[j] = x[j], x[i]
        y = x[n - s :] + x[: n - s]
        return x, y, TruthCert(2 * s, 2 * s)

    if fam == "random-edits":
        x = rs.child("x").symbols(n, a)
        return (x, *_plant(x, spec, a, rs.child("edits")))

    assert fam == "padded-hard"
    alpha = ladder_alpha(k, spec.c)
    core_len = 6 * alpha
    if core_len < 1 or core_len > n:
        raise UnsatisfiableSpecError(
            f"padded-hard needs 6*floor(k^c) in [1, n], got {core_len} at n={n}"
        )
    pad_sym = 0
    core_x = [1 + s for s in rs.child("core").symbols(core_len, a - 1)]
    core_y, cert = _plant(core_x, spec, a + 1, rs.child("edits"))
    slots = n // core_len
    i = rs.child("slot").uniform_index(slots)
    lead = [pad_sym] * (core_len * i)
    tail = [pad_sym] * (n - core_len * (i + 1))
    return lead + core_x + tail, lead + core_y + tail, cert


# ---------------------------------------------------------------------------
# Tester registry
# ---------------------------------------------------------------------------


def _t_main(xv, yv, alpha, beta, cfg, rs):
    return main_gap(GapInstance(xv, yv, alpha, beta), cfg, rs)


def _t_baseline(xv, yv, alpha, beta, cfg, rs):
    return baseline_gap(GapInstance(xv, yv, alpha, beta), cfg, rs)


def _t_multilevel(xv, yv, alpha, beta, cfg, rs):
    return one_sided_passes(multilevel_reduce, xv, yv, alpha, max(beta, 1), cfg.delta, rs)


def _t_single_level(xv, yv, alpha, beta, cfg, rs):
    return one_sided_passes(single_level_reduce, xv, yv, alpha, max(beta, 1), cfg.delta, rs)


def _t_equality(xv, yv, alpha, beta, cfg, rs):
    return equality_test(xv, yv, alpha, cfg.delta, rs)


def _t_banded(xv, yv, alpha, beta, cfg, rs):
    return gap_ed_banded(xv.fetch(), yv.fetch(), beta) is not EXCEEDS


TESTERS = {
    "main": _t_main,
    "baseline": _t_baseline,
    "multilevel": _t_multilevel,
    "single-level": _t_single_level,
    "equality": _t_equality,
    "banded": _t_banded,
}


# ---------------------------------------------------------------------------
# Grid configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    n: tuple[int, ...] = (4096,)
    k: tuple[int, ...] = (16,)
    c: tuple[float, ...] = (2.0,)
    tester: tuple[str, ...] = ("main",)
    family: tuple[str, ...] = ("random-edits",)
    h: Optional[int] = None
    delta: float = 0.1
    trials: int = 10
    seed: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        TesterConfig(delta=self.delta, h=self.h)  # its range checks, before any output
        for t in self.tester:
            if t not in TESTERS:
                raise ValueError(f"unknown tester {t!r}; known: {sorted(TESTERS)}")
        for f in self.family:
            if f not in FAMILIES:
                raise ValueError(f"unknown family {f!r}; known: {list(FAMILIES)}")

    def cells(self):
        return list(product(self.tester, self.family, self.n, self.c, self.k))


def _h_value(v: str) -> Optional[int]:
    return None if v == "auto" else int(v)


_AXIS_KEYS = {"n": int, "k": int, "c": float, "tester": str, "family": str}
_SCALAR_KEYS = {"h": _h_value, "delta": float, "trials": int, "seed": int}


def parse_config_text(text: str) -> GridConfig:
    """Parse the key=value grid format; comma-separated values make axes.

    Axis keys take one or more values, scalar keys exactly one. Unknown keys,
    repeated keys and malformed values are errors that name the line.
    """
    fields: dict[str, object] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key = value")
        key, _, rhs = line.partition("=")
        key = key.strip()
        vals = [v.strip() for v in rhs.split(",") if v.strip()]
        if key in fields:
            raise ValueError(f"config line {ln}: {key!r} is set twice")
        try:
            if key in _AXIS_KEYS:
                if not vals:
                    raise ValueError(f"{key!r} takes one or more values, got 0")
                fields[key] = tuple(_AXIS_KEYS[key](v) for v in vals)
            elif key in _SCALAR_KEYS:
                if len(vals) != 1:
                    raise ValueError(f"{key!r} takes one value, got {len(vals)}")
                fields[key] = _SCALAR_KEYS[key](vals[0])
            else:
                known = sorted(_AXIS_KEYS.keys() | _SCALAR_KEYS.keys())
                raise ValueError(f"unknown key {key!r}; known: {known}")
        except ValueError as exc:
            raise ValueError(f"config line {ln}: {exc}") from None
    return GridConfig(**fields)


# ---------------------------------------------------------------------------
# Grid runner
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    rows: int = 0
    cells: int = 0
    unsupported_cells: int = 0
    reasons: list[str] = field(default_factory=list)  # why trials were unsupported, per cell

    @property
    def exit_code(self) -> int:
        if self.cells and self.unsupported_cells == self.cells:
            return 2
        return 0


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, "g")
    return str(v)


def run_grid(config: GridConfig, out) -> GridResult:
    """Run every cell of the grid, streaming trial and summary rows as CSV."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    result = GridResult()
    tester_cfg = TesterConfig(delta=config.delta, h=config.h)

    for cell_idx, (tester, family, n, c, k) in enumerate(config.cells()):
        beta = k
        fn = TESTERS[tester]
        cell_rs = RandomStream(config.seed).child(f"cell-{cell_idx}")
        records = []
        reasons: dict[str, None] = {}  # distinct, in order of first appearance
        for t in range(config.trials):
            trs = cell_rs.child(f"trial-{t}")
            base = dict(
                tester=tester, family=family, n=n, k=k, c=c,
                h=config.h, delta=config.delta, seed=config.seed, trial=t,
            )
            try:
                alpha = ladder_alpha(k, c)
                if alpha < beta:
                    raise UnsatisfiableSpecError(
                        f"alpha = int(k^c) = {alpha} < beta = k = {beta}"
                    )
                spec = InstanceSpec(
                    family=family,
                    n=n,
                    k=k,
                    side="yes" if t % 2 == 0 else "no",
                    c=c,
                )
                x, y, cert = generate(spec, trs.child("gen"))
            except UnsatisfiableSpecError as exc:
                reasons[str(exc)] = None
                records.append(TrialRecord(**base, status="unsupported"))
                continue
            xm = MeteredString(x, track_distinct=True)
            ym = MeteredString(y, track_distinct=True)
            t0 = time.perf_counter_ns()
            verdict, status = "", "ok"
            with oracle_call_tally() as tally:
                try:
                    verdict = YES if fn(xm.view(), ym.view(), alpha, beta, tester_cfg, trs.child("run")) else NO
                except ParameterError as exc:
                    reasons[str(exc)] = None
                    status = "unsupported"
            wall = time.perf_counter_ns() - t0
            records.append(
                TrialRecord(
                    **base,
                    verdict=verdict,
                    truth=cert.classify(alpha, beta),
                    queries_total=xm.count + ym.count,
                    queries_distinct=xm.distinct_count() + ym.distinct_count(),
                    oracle_calls=tally[0],
                    wall_time_ns=wall,
                    status=status,
                )
            )
        rows = [rec.as_row() for rec in records]
        for record, row in [*(("trial", r) for r in rows), ("summary", summarize_cell(rows))]:
            writer.writerow([record, *(_fmt(row.get(col)) for col in CSV_COLUMNS[1:])])
        result.rows += len(rows) + 1
        result.cells += 1
        if not any(rec.status == "ok" for rec in records):
            result.unsupported_cells += 1
        result.reasons.extend(f"cell {cell_idx}: {r}" for r in reasons)
    return result


def _error_counts(rows: list[dict]) -> tuple[int, int, int, int]:
    """(YES-truth trials, of them not answered YES, NO-truth trials, of them
    not answered NO). GAP-truth trials count in neither."""
    yes = [r["verdict"] for r in rows if r["truth"] == YES]
    no = [r["verdict"] for r in rows if r["truth"] == NO]
    return len(yes), sum(v != YES for v in yes), len(no), sum(v != NO for v in no)


def summarize_cell(trial_rows: list[dict]) -> dict:
    """Per-cell aggregates: empirical YES/NO error rates, query and time stats."""
    first = trial_rows[0]
    ok = [r for r in trial_rows if r["status"] == "ok"]
    summary = {
        key: first[key]
        for key in ("tester", "family", "n", "k", "c", "h", "delta", "seed")
    }
    summary["status"] = "ok" if ok else "unsupported"
    yt, yw, nt, nw = _error_counts(ok)
    summary["yes_error"] = round(yw / yt, 6) if yt else None
    summary["no_error"] = round(nw / nt, 6) if nt else None
    if ok:
        qs = [r["queries_total"] for r in ok]
        summary["mean_queries"] = round(mean(qs), 3)
        summary["median_queries"] = median(qs)
        summary["wall_time_ns"] = round(mean(r["wall_time_ns"] for r in ok))
    return summary


# ---------------------------------------------------------------------------
# Adjudication of recorded trials
# ---------------------------------------------------------------------------


def wilson_interval(wrong: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval for an error proportion."""
    if total == 0:
        return (0.0, 1.0)
    p = wrong / total
    denom = 1 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class CellReport:
    key: tuple
    yes_trials: int
    yes_wrong: int
    yes_error: float
    yes_interval: tuple[float, float]
    no_trials: int
    no_wrong: int
    no_error: float
    no_interval: tuple[float, float]


# The columns a cell is keyed by in `adjudicate`'s report, and every column it reads
CELL_KEY = ("tester", "family", "n", "k", "c", "h", "delta")
ADJUDICATED_COLUMNS = ("record", "status", "verdict", "truth", *CELL_KEY)


def adjudicate(rows: Iterable[dict]) -> list[CellReport]:
    """Per-cell error rates with Wilson 95% intervals from trial rows.

    The rows may be a grid CSV as `csv.DictReader` reads it: summary rows,
    GAP-truth and unsupported trials are excluded from the error statistics.
    Each row holds every ADJUDICATED_COLUMNS entry. Cells are reported in
    the order the rows first list them, which is `run_grid`'s grid order.
    """
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["record"] != "trial" or row["status"] != "ok":
            continue
        cells.setdefault(tuple(row[k] for k in CELL_KEY), []).append(row)
    reports = []
    for key, cell_rows in cells.items():
        yt, yw, nt, nw = _error_counts(cell_rows)
        reports.append(
            CellReport(
                key=key,
                yes_trials=yt,
                yes_wrong=yw,
                yes_error=yw / yt if yt else 0.0,
                yes_interval=wilson_interval(yw, yt),
                no_trials=nt,
                no_wrong=nw,
                no_error=nw / nt if nt else 0.0,
                no_interval=wilson_interval(nw, nt),
            )
        )
    return reports


def grid_csv_text(config: GridConfig) -> tuple[str, GridResult]:
    buf = io.StringIO()
    result = run_grid(config, buf)
    return buf.getvalue(), result
