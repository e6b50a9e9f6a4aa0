"""Instance families, grid runner, adjudication, CLI surface."""

import csv
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gapedit.harness import (
    FAMILIES,
    GridConfig,
    InstanceSpec,
    TrialRecord,
    TruthCert,
    UnsatisfiableSpecError,
    adjudicate,
    generate,
    grid_csv_text,
    ladder_alpha,
    parse_config_text,
    summarize_cell,
    wilson_interval,
    CSV_COLUMNS,
    _generate_raw,
    _plant_substitutions,
)
from gapedit.metering import RandomStream
from gapedit.strings import ed_exact, ed_lower_bound
from gapedit.cli import build_parser, main as cli_main
from test_golden import blank_wall_time

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert cert.lo == cert.hi and cert.lo <= 7
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
    assert cert.lo == cert.hi and cert.lo <= 2
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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("side", ("yes", "no"))
def test_construction_certificate_decides_truth(family, side):
    # run_grid takes a trial's truth from the construction certificate alone,
    # so every family must certify YES, NO or GAP at beta = k, also past the
    # n <= 4096 limit where generate refines it with ed_exact
    built = 0
    for n, k, c, alphabet in (
        (64, 2, 2.0, 2),
        (300, 7, 1.5, 3),
        (1000, 0, 2.0, 1 << 32),
        (5000, 16, 2.0, 1 << 32),
        (5000, 40, 3.0, 2),
        (8192, 3, 1.2, 3),
    ):
        spec = InstanceSpec(
            family=family, n=n, k=k, side=side, c=c,
            alphabet_size=max(alphabet, n if family == "rotation" else 2),
        )
        try:
            _, _, cert = _generate_raw(spec, RandomStream(n + k).child("gen"))
        except UnsatisfiableSpecError:
            continue
        built += 1
        assert cert.classify(ladder_alpha(k, c), k) is not None, (spec, cert)
    assert built >= 3


def test_truth_classification():
    assert TruthCert(0, 4).classify(16, 4) == "YES"
    assert TruthCert(20, 20).classify(16, 4) == "NO"
    assert TruthCert(8, 8).classify(16, 4) == "GAP"
    assert TruthCert(2, 8).classify(16, 4) is None


def _plant_one_draw_at_a_time(x, count, alphabet, rs, fresh_base):
    """Reference: _plant_substitutions drawing positions with one
    uniform_index call at a time."""
    y, chosen = list(x), set()
    while len(chosen) < count:
        chosen.add(rs.uniform_index(len(x)))
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


@pytest.mark.parametrize("n, count", [(1, 1), (7, 7), (12, 11), (50, 48), (300, 7), (64, 0)])
@pytest.mark.parametrize("fresh_base", [None, 1 << 20])
def test_plant_substitutions_matches_one_draw_at_a_time(n, count, fresh_base):
    # count near n makes later rounds draw positions already chosen
    for seed in range(5):
        x = RandomStream(seed).symbols(n, 4)
        a, b = RandomStream(seed).child("edits"), RandomStream(seed).child("edits")
        got = _plant_substitutions(x, count, 4, a, fresh_base)
        assert got == _plant_one_draw_at_a_time(x, count, 4, b, fresh_base)
        assert a._state == b._state


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


def test_explicit_depth_three_with_beta_zero_completes():
    # k = 0 gives beta = 0, which every depth's gate admits
    cfg = GridConfig(n=(256,), k=(0,), c=(2.0,), tester=("main",), h=3, trials=1, seed=1)
    text, result = grid_csv_text(cfg)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert rows[0]["verdict"] == rows[0]["truth"] == "YES"
    assert result.unsupported_cells == 0


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


def test_one_sided_testers_honour_delta():
    # tester=multilevel runs main's multilevel tier, so it reads what main
    # reads at every delta; single-level runs reps_any(delta) passes as well
    got = {}
    for delta in (0.3, 0.01):
        testers = ("main", "multilevel", "single-level")
        text, _ = grid_csv_text(GridConfig(tester=testers, trials=2, seed=2, delta=delta))
        for r in csv.DictReader(io.StringIO(text)):
            if r["record"] == "trial":
                got[r["tester"], delta, r["trial"]] = (r["queries_total"], int(r["oracle_calls"]))
    for t in "01":
        for delta in (0.3, 0.01):
            assert got["multilevel", delta, t] == got["main", delta, t]
        # reps_any(0.3) = 2 passes, reps_any(0.01) = 5
        assert 2 * got["single-level", 0.01, t][1] == 5 * got["single-level", 0.3, t][1]


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


def test_default_ladder_config():
    path = Path(__file__).resolve().parent.parent / "configs" / "default_ladder.cfg"
    assert parse_config_text(path.read_text(encoding="utf-8")) == GridConfig(
        n=(1 << 14, 1 << 16, 1 << 18, 1 << 20),
        k=(16, 64, 256),
        c=(1.5, 2.0),
        tester=("main",),
        family=("random-edits",),
        delta=0.1,
        trials=200,
        seed=1,
    )


def test_parse_config_rejects_unknown_tester():
    with pytest.raises(ValueError):
        parse_config_text("tester = warp")
    with pytest.raises(ValueError):
        parse_config_text("just a line")


@pytest.mark.parametrize(
    "axis, words",
    [("tester", "unknown tester 'nope'"), ("family", "unknown family 'nope'")],
)
def test_grid_config_rejects_unknown_names(axis, words):
    with pytest.raises(ValueError, match=words):
        GridConfig(n=(64,), k=(2,), trials=1, **{axis: ("nope",)})


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
        ("alphabet = 4", 1, "unknown key 'alphabet'"),
        ("n =", 1, "'n' takes one or more values, got 0"),
        ("k = 4\ntester = ,", 2, "'tester' takes one or more values, got 0"),
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


def test_cli_run_refuses_grid_flags_beside_config(tmp_path, capsys):
    cfgfile = tmp_path / "grid.cfg"
    cfgfile.write_text("n = 256\ntrials = 2\ntester = banded\n")
    out = tmp_path / "o.csv"
    argv = ["run", "--config", str(cfgfile), "--trials", "5", "--n", "512", "--out", str(out)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--n" in err and "--trials" in err
    assert not out.exists()


def test_cli_adjudicate_matches_summary_rows(tmp_path, capsys):
    cfgfile = tmp_path / "grid.cfg"
    cfgfile.write_text("n = 512, 1024\nk = 4\nc = 3\ntester = banded, main\ntrials = 4\nseed = 3\n")
    grid = tmp_path / "grid.csv"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(grid)]) == 0
    summaries = {
        (r["tester"], r["n"]): r
        for r in csv.DictReader(io.StringIO(grid.read_text()))
        if r["record"] == "summary"
    }
    capsys.readouterr()
    assert cli_main(["adjudicate", "--in", str(grid)]) == 0
    report = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["tester"], r["n"]) for r in report] == [
        ("banded", "512"), ("banded", "1024"), ("main", "512"), ("main", "1024"),
    ]
    for line in report:
        summary = summaries[line["tester"], line["n"]]
        for col in ("yes_error", "no_error"):
            assert line[col] == f"{float(summary[col] or 0):.6f}"


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
    assert f"alphabet = {1 << 32}" in meta


@pytest.mark.parametrize(
    "family, alphabet, words",
    [
        pytest.param("random-edits", "1", "alphabet >= 2", id="one-symbol"),
        pytest.param("rotation", "4", "rotation needs alphabet_size >= n", id="rotation-below-n"),
    ],
)
def test_cli_gen_refuses_an_alphabet_too_small_for_the_family(
    tmp_path, capsys, family, alphabet, words
):
    prefix = tmp_path / "inst"
    argv = ["gen", "--family", family, "--n", "16", "--k", "2", "--alphabet", alphabet]
    assert cli_main([*argv, "--out", str(prefix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err
    assert list(tmp_path.iterdir()) == []


def test_cli_gen_writes_symbols_of_a_64_bit_alphabet(tmp_path, capsys):
    # symbols of 2^63 and above are written as they were drawn, never wrapped
    for alphabet in (2**64 - 1, 2**64):
        prefix = tmp_path / f"inst-{alphabet}"
        argv = ["gen", "--n", "64", "--k", "1", "--c", "2", "--alphabet", str(alphabet)]
        assert cli_main([*argv, "--out", str(prefix)]) == 0
        x = [int(v) for v in (tmp_path / f"inst-{alphabet}.x").read_text().split()]
        assert all(0 <= s < alphabet for s in x) and max(x) >= 2**63
    capsys.readouterr()
    big = tmp_path / "big"
    big.mkdir()
    argv = ["gen", "--n", "8", "--k", "1", "--c", "2", "--alphabet", str(2**64 + 1)]
    assert cli_main([*argv, "--out", str(big / "inst")]) == 1
    assert capsys.readouterr().err.startswith("error: alphabet must lie in [1, 2^64]")
    assert list(big.iterdir()) == []


@pytest.mark.parametrize(
    "text, missing",
    [
        pytest.param("a,b\n", "record, status, verdict, truth, tester", id="foreign-header"),
        pytest.param("record,status,tester\ntrial,ok,banded\n", "verdict, truth, family",
                     id="partial-header"),
        pytest.param("", "record, status, verdict, truth, tester", id="empty-file"),
    ],
)
def test_cli_adjudicate_refuses_a_file_that_is_not_a_grid_csv(tmp_path, capsys, text, missing):
    grid, report = tmp_path / "grid.csv", tmp_path / "report.csv"
    grid.write_text(text)
    assert cli_main(["adjudicate", "--in", str(grid), "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {grid} is not a grid CSV: missing columns ")
    assert missing in err
    assert not report.exists()


def test_cli_certify_nonadaptive():
    code = cli_main(
        ["certify-nonadaptive", "--tester", "multilevel", "--n", "1024",
         "--k", "4", "--c", "3", "--trials", "5", "--seed", "2"]
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    (
        ["gen", "--trials", "3"],
        ["gen", "--delta", "0.2"],
        ["certify-nonadaptive", "--family", "rotation"],
        ["certify-nonadaptive", "--out", "f.csv"],
        ["run", "--h", "three"],
        ["gen", "--h", "5"],  # not a prefix of --help
        ["run", "--tri", "5"],  # not a prefix of --trials
        ["lemma-check", "--tri", "5"],
    ),
)
def test_cli_rejects_flags_a_subcommand_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_cli_parses_h_once():
    parser = build_parser()
    assert parser.parse_args(["run"]).h is None
    assert parser.parse_args(["run", "--h", "auto"]).h is None
    assert parser.parse_args(["certify-nonadaptive", "--h", "2"]).h == 2


def test_cli_lemma_check():
    code = cli_main(["lemma-check", "--n", "64", "--trials", "300", "--seed", "4"])
    assert code == 0


@pytest.mark.parametrize(
    "flags, words",
    [
        pytest.param(["--trials", "0"], "needs --trials >= 1", id="zero-trials"),
        pytest.param(["--n", "1"], "needs --n >= 2", id="n-below-two"),
    ],
)
def test_cli_lemma_check_rejects_an_empty_check(capsys, flags, words):
    assert cli_main(["lemma-check", *flags]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error: ") and words in captured.err


def test_cli_lemma_check_refuses_n_past_the_draw_range(capsys):
    # a case length is 2 plus a draw from [0, n - 1), which no 64-bit draw covers
    assert cli_main(["lemma-check", "--n", str(2**65), "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "needs m in [1, 2^64]" in captured.err


def test_readme_certify_example_passes(capsys):
    lines = [ln.strip() for ln in README.read_text(encoding="utf-8").splitlines()]
    (example,) = [ln for ln in lines if ln.startswith("gapedit certify-nonadaptive ")]
    assert cli_main(shlex.split(example)[1:]) == 0
    assert capsys.readouterr().out.startswith("PASS tester=main ")


def test_readme_commands_parse():
    """Every `gapedit ...` line of the README's code blocks parses."""
    in_block, commands = False, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("gapedit "):
            commands.append(line)
    assert len(commands) >= 7
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_run_flag_and_config_defaults_agree(tmp_path):
    flags_csv, config_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("trials = 1\nseed = 2\n")
    assert cli_main(["run", "--trials", "1", "--seed", "2", "--out", str(flags_csv)]) == 0
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(config_csv)]) == 0
    flags_text = blank_wall_time(flags_csv.read_text(encoding="utf-8"))
    assert flags_text == blank_wall_time(config_csv.read_text(encoding="utf-8"))


def test_cli_exit_code_unsupported_grid(tmp_path):
    out = tmp_path / "u.csv"
    code = cli_main(
        ["run", "--n", "512", "--k", "64", "--c", "1.1", "--tester", "main",
         "--trials", "2", "--out", str(out)]
    )
    assert code == 2


def test_cli_alpha_past_float_range_is_an_unsupported_cell(tmp_path, capsys):
    # int(k**c) raises OverflowError for a k beyond the float range
    out = tmp_path / "o.csv"
    code = cli_main(
        ["run", "--n", "64", "--k", str(10**400), "--c", "1.01", "--h", "2",
         "--out", str(out)]
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["status"] for r in rows if r["record"] == "summary"] == ["unsupported"]
    assert all(r["status"] == "unsupported" for r in rows)
    err = capsys.readouterr().err
    assert "unsupported: cell 0: alpha = k^c is past the float range" in err
    assert "unsupported_cells=1" in err


@pytest.mark.parametrize(
    "k, c, reason",
    [
        pytest.param("-2", "1.5", "alpha = k^c needs k >= 0", id="negative-k"),
        pytest.param("0", "-1", "alpha = k^c is undefined at k=0", id="zero-k-negative-c"),
        pytest.param("16", "nan", "alpha = k^c is undefined at c=nan", id="nan-c"),
        pytest.param("1", "nan", "alpha = k^c is undefined at c=nan", id="unit-k-nan-c"),
    ],
)
def test_cli_alpha_without_a_value_is_an_unsupported_cell(tmp_path, capsys, k, c, reason):
    out = tmp_path / "o.csv"
    code = cli_main(["run", "--n", "64", "--k", k, "--c", c, "--trials", "2", "--out", str(out)])
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 3 and all(r["status"] == "unsupported" for r in rows)
    assert f"unsupported: cell 0: {reason}" in capsys.readouterr().err


def test_cell_with_alpha_below_beta_is_unsupported_not_fatal(tmp_path, capsys):
    # at c = 0.5, alpha = int(20^0.5) = 4 < beta = 20: no gap instance exists
    cfgfile = tmp_path / "grid.cfg"
    cfgfile.write_text("n = 512\nk = 20\nc = 0.5, 2\ntester = banded, main\ntrials = 2\n")
    out = tmp_path / "o.csv"
    assert cli_main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    summaries = [(r["tester"], r["c"], r["status"]) for r in rows if r["record"] == "summary"]
    assert summaries == [
        ("banded", "0.5", "unsupported"),
        ("banded", "2", "ok"),
        ("main", "0.5", "unsupported"),
        ("main", "2", "ok"),
    ]
    err = capsys.readouterr().err
    for cell in (0, 2):
        assert f"unsupported: cell {cell}: alpha = int(k^c) = 4 < beta = k = 20" in err


@pytest.mark.parametrize(
    "flags, words",
    [
        pytest.param(["--trials", "0"], "trials must be >= 1", id="zero-trials"),
        pytest.param(["--delta", "1.5"], "delta must lie in (0,1)", id="delta-out-of-range"),
    ],
)
def test_cli_run_rejects_a_grid_that_cannot_run_before_writing(tmp_path, capsys, flags, words):
    out = tmp_path / "o.csv"
    assert cli_main(["run", "--n", "64", *flags, "--out", str(out)]) == 1
    assert not out.exists()
    assert words in capsys.readouterr().err


def test_parse_config_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        parse_config_text("trials = 0")


def test_cli_certify_nonadaptive_rejects_empty_strings(capsys):
    assert cli_main(["certify-nonadaptive", "--n", "0"]) == 1
    assert "certification needs n >= 1" in capsys.readouterr().err


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
