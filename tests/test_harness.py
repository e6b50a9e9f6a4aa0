"""Instance families, grid runner, adjudication, CLI surface."""

import csv
import io
import subprocess
import sys

import pytest

from gapedit.harness import (
    GridConfig,
    InstanceSpec,
    TrialRecord,
    TruthCert,
    UnsatisfiableSpecError,
    adjudicate,
    generate,
    grid_csv_text,
    parse_config_text,
    summarize_cell,
    wilson_interval,
    CSV_COLUMNS,
    _generate_raw,
)
from gapedit.metering import RandomStream
from gapedit.strings import ed_exact, ed_lower_bound
from gapedit.cli import main as cli_main


def gen(family, n, k, side="yes", seed=1, c=2.0, alphabet=1 << 32):
    spec = InstanceSpec(family=family, n=n, k=k, side=side, c=c, alphabet_size=alphabet)
    return generate(spec, RandomStream(seed).child("gen"))


def test_rotation_family():
    x, y, cert = gen("rotation", 10, 2, alphabet=16)
    assert cert == TruthCert(4, 4)
    assert ed_exact(x, y) == 4
    assert sorted(x) == sorted(y) == list(range(10))
    with pytest.raises(UnsatisfiableSpecError):
        gen("rotation", 10, 6)
    with pytest.raises(UnsatisfiableSpecError):
        gen("rotation", 10, 2, alphabet=8)


def test_random_edits_zero_is_identity():
    x, y, cert = gen("random-edits", 64, 0)
    assert x == y and cert == TruthCert(0, 0)


def test_random_edits_yes_side():
    x, y, cert = gen("random-edits", 300, 7)
    assert cert.exact and cert.lo <= 7
    assert ed_exact(x, y) == cert.lo


def test_random_edits_no_side_bound():
    x, y, cert = gen("random-edits", 512, 4, side="no")
    planted = int(4**2.0) + 1 + 4
    assert cert == TruthCert(planted, planted)
    assert ed_exact(x, y) == planted
    assert ed_lower_bound(x, y) >= planted


def test_unrelated_family():
    for n in (16, 128, 512):
        x, y, cert = gen("unrelated", n, 0)
        assert cert == TruthCert(n, n)
        assert ed_exact(x, y) == n


def test_padded_hard_family():
    # core of length 6*alpha embedded in identical padding: the distance of
    # the whole pair equals the core distance
    x, y, cert = gen("padded-hard", 400, 2, side="yes")  # alpha=4, core=24
    assert len(x) == len(y) == 400
    assert cert.exact and cert.lo <= 2
    assert ed_exact(x, y) == cert.lo
    x, y, cert = gen("padded-hard", 400, 2, side="no")
    assert cert.lo > 4
    assert ed_exact(x, y) == cert.lo
    with pytest.raises(UnsatisfiableSpecError):
        gen("padded-hard", 20, 2)


def test_construction_bounds_match_exact_when_affordable():
    # the raw construction certificates (no exact refinement) stay sound
    for seed in range(10):
        for family, k, side in (
            ("random-edits", 5, "yes"),
            ("random-edits", 3, "no"),
            ("rotation", 4, "yes"),
            ("unrelated", 0, "yes"),
            ("padded-hard", 2, "no"),
        ):
            spec = InstanceSpec(family=family, n=256, k=k, side=side, c=2.0)
            x, y, cert = _generate_raw(spec, RandomStream(seed).child("gen"))
            d = ed_exact(x, y)
            assert cert.lo <= d <= cert.hi, (family, side, cert, d)


def test_truth_classification():
    assert TruthCert(0, 4).classify(16, 4) == "YES"
    assert TruthCert(20, 20).classify(16, 4) == "NO"
    assert TruthCert(8, 8).classify(16, 4) == "GAP"
    assert TruthCert(2, 8).classify(16, 4) is None


def test_generation_is_deterministic():
    a = gen("random-edits", 128, 5, seed=9)
    b = gen("random-edits", 128, 5, seed=9)
    assert a[0] == b[0] and a[1] == b[1]


# ---------------------------------------------------------------------------
# Grid runner and CSV
# ---------------------------------------------------------------------------


def test_empty_grid_writes_header_only():
    cfg = GridConfig(tester=(), trials=5)
    text, result = grid_csv_text(cfg)
    assert text.splitlines() == [",".join(CSV_COLUMNS)]
    assert result.cells == 0 and result.exit_code == 0


def test_cell_cardinality_contract():
    cfg = GridConfig(n=(512,), k=(4,), tester=("banded",), trials=100, seed=7)
    text, result = grid_csv_text(cfg)
    lines = text.splitlines()
    assert len(lines) == 1 + 100 + 1  # header + trials + summary
    rows = list(csv.DictReader(io.StringIO(text)))
    assert sum(r["record"] == "trial" for r in rows) == 100
    assert sum(r["record"] == "summary" for r in rows) == 1


def test_reproducibility_modulo_wall_time():
    cfg = GridConfig(n=(1024,), k=(8,), tester=("main", "banded"), trials=8, seed=42)
    text1, _ = grid_csv_text(cfg)
    text2, _ = grid_csv_text(cfg)

    def strip_wall(text):
        out = []
        idx = CSV_COLUMNS.index("wall_time_ns")
        for row in csv.reader(io.StringIO(text)):
            row[idx] = ""
            out.append(",".join(row))
        return "\n".join(out)

    assert text1 != text2 or text1 == text2  # wall times usually differ
    assert strip_wall(text1) == strip_wall(text2)


def test_unsupported_cells_recorded_not_dropped():
    # alpha = k^c too close to beta: main refuses, rows carry the status
    cfg = GridConfig(n=(512,), k=(64,), c=(1.1,), tester=("main",), trials=4, seed=3)
    text, result = grid_csv_text(cfg)
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r["record"] == "trial"]
    assert len(rows) == 4
    assert all(r["status"] == "unsupported" for r in rows)
    assert result.exit_code == 2


def test_unsatisfiable_family_cell_recorded():
    # rotation with s > n/2 cannot be built; the cell is marked, not fatal
    cfg = GridConfig(n=(64,), k=(40,), tester=("banded",), family=("rotation",), trials=3, seed=1)
    text, result = grid_csv_text(cfg)
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r["record"] == "trial"]
    assert len(rows) == 3 and all(r["status"] == "unsupported" for r in rows)
    assert result.exit_code == 2


def test_exit_code_zero_when_any_cell_supported():
    cfg = GridConfig(
        n=(512,), k=(64,), c=(1.1,), tester=("main", "banded"), trials=2, seed=3
    )
    _, result = grid_csv_text(cfg)
    assert result.exit_code == 0


def test_trial_record_row_shape():
    rec = TrialRecord(
        tester="main", family="random-edits", n=8, k=1, c=2.0, h=None,
        delta=0.1, seed=1, trial=0, verdict="YES", truth="YES",
        queries_total=4, queries_distinct=4, oracle_calls=1, wall_time_ns=10,
    )
    row = rec.as_row()
    assert set(row) <= set(CSV_COLUMNS)
    assert row["status"] == "ok"


def test_summarize_cell_errors():
    rows = [
        {"tester": "t", "family": "f", "n": 8, "k": 1, "c": 2.0, "h": None,
         "delta": 0.1, "seed": 1, "status": "ok", "truth": "YES", "verdict": "YES",
         "queries_total": 10, "wall_time_ns": 5},
        {"tester": "t", "family": "f", "n": 8, "k": 1, "c": 2.0, "h": None,
         "delta": 0.1, "seed": 1, "status": "ok", "truth": "NO", "verdict": "YES",
         "queries_total": 30, "wall_time_ns": 15},
    ]
    s = summarize_cell(rows)
    assert s["yes_error"] == 0.0 and s["no_error"] == 1.0
    assert s["mean_queries"] == 20 and s["median_queries"] == 20


# ---------------------------------------------------------------------------
# Adjudication
# ---------------------------------------------------------------------------


def _trial(verdict, truth, **kw):
    row = {
        "record": "trial", "status": "ok", "tester": "t", "family": "f",
        "n": 64, "k": 2, "c": "2", "h": "", "delta": "0.1",
        "verdict": verdict, "truth": truth,
    }
    row.update(kw)
    return row


def test_adjudicate_all_correct():
    rows = [_trial("YES", "YES") for _ in range(50)] + [_trial("NO", "NO") for _ in range(50)]
    (rep,) = adjudicate(rows)
    assert rep.yes_error == 0.0 and rep.no_error == 0.0
    assert rep.yes_trials == rep.no_trials == 50


def test_adjudicate_one_wrong_in_hundred():
    rows = [_trial("YES", "YES") for _ in range(99)] + [_trial("NO", "YES")]
    (rep,) = adjudicate(rows)
    assert rep.yes_trials == 100 and rep.yes_error == pytest.approx(0.01)
    lo, hi = rep.yes_interval
    assert lo < 0.01 < hi


def test_adjudicate_excludes_gap_and_unsupported():
    rows = [
        _trial("YES", "YES"),
        _trial("NO", "GAP"),
        dict(_trial("", "YES"), status="unsupported"),
    ]
    (rep,) = adjudicate(rows)
    assert rep.yes_trials == 1 and rep.no_trials == 0


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    assert wilson_interval(0, 0) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_config_text():
    cfg = parse_config_text(
        """
        # grid axes
        n = 1024, 4096
        k = 4, 8
        c = 2
        tester = main, banded
        family = random-edits
        delta = 0.2
        trials = 3
        seed = 11
        h = auto
        """
    )
    assert cfg.n == (1024, 4096) and cfg.k == (4, 8)
    assert cfg.tester == ("main", "banded") and cfg.h is None
    assert cfg.delta == 0.2 and cfg.trials == 3 and cfg.seed == 11
    assert len(cfg.cells()) == 8


def test_parse_config_rejects_unknown_tester():
    with pytest.raises(ValueError):
        parse_config_text("tester = warp")
    with pytest.raises(ValueError):
        parse_config_text("just a line")


@pytest.mark.parametrize(
    "text, line, words",
    [
        ("n = 1024\ntrails = 500", 2, "unknown key 'trails'"),
        ("delta = 0.1, 0.2", 1, "'delta' takes one value, got 2"),
        ("k = 4\n\nh = 1, 2", 3, "'h' takes one value, got 2"),
        ("seed =", 1, "'seed' takes one value, got 0"),
        ("leaf = exact", 1, "unknown key 'leaf'"),
        ("n = 1024\nn = 2048", 2, "'n' is set twice"),
        ("trials = ten", 1, "invalid literal"),
    ],
)
def test_parse_config_rejects_bad_lines(text, line, words):
    with pytest.raises(ValueError) as exc:
        parse_config_text(text)
    assert str(exc.value).startswith(f"config line {line}: ")
    assert words in str(exc.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_and_adjudicate(tmp_path):
    out = tmp_path / "grid.csv"
    code = cli_main(
        [
            "run", "--n", "512", "--k", "4", "--tester", "banded",
            "--trials", "6", "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert sum(r["record"] == "trial" for r in rows) == 6
    report = tmp_path / "report.csv"
    code = cli_main(["adjudicate", "--in", str(out), "--out", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("tester,family")
    assert len(lines) == 2


def test_cli_run_config_file(tmp_path):
    cfgfile = tmp_path / "grid.cfg"
    cfgfile.write_text("n = 256\nk = 2\ntester = banded\ntrials = 2\nseed = 1\n")
    out = tmp_path / "o.csv"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_COLUMNS[:3]))


def test_cli_gen(tmp_path):
    prefix = tmp_path / "inst"
    code = cli_main(
        ["gen", "--family", "rotation", "--n", "10", "--k", "2", "--seed", "3",
         "--out", str(prefix)]
    )
    assert code == 0
    x = [int(v) for v in (tmp_path / "inst.x").read_text().split()]
    y = [int(v) for v in (tmp_path / "inst.y").read_text().split()]
    assert ed_exact(x, y) == 4
    meta = (tmp_path / "inst.meta").read_text()
    assert "ed_lo = 4" in meta and "ed_hi = 4" in meta


def test_cli_certify_nonadaptive():
    code = cli_main(
        ["certify-nonadaptive", "--tester", "multilevel", "--n", "1024",
         "--k", "4", "--c", "3", "--trials", "5", "--seed", "2"]
    )
    assert code == 0


def test_cli_lemma_check():
    code = cli_main(["lemma-check", "--n", "64", "--trials", "300", "--seed", "4"])
    assert code == 0


def test_cli_exit_code_unsupported_grid(tmp_path):
    out = tmp_path / "u.csv"
    code = cli_main(
        ["run", "--n", "512", "--k", "64", "--c", "1.1", "--tester", "main",
         "--trials", "2", "--out", str(out)]
    )
    assert code == 2


def test_cli_error_exit_code(tmp_path):
    assert cli_main(["adjudicate", "--in", str(tmp_path / "missing.csv")]) == 1


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gapedit.cli", "lemma-check", "--n", "32",
         "--trials", "50", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
