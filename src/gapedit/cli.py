"""Command-line interface.

Subcommands: gen, run, adjudicate, certify-nonadaptive, lemma-check.
Exit codes: 0 success, 2 when a grid contained only unsupported cells,
1 on errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional

from .harness import (
    _AXIS_KEYS,
    _SCALAR_KEYS,
    ADJUDICATED_COLUMNS,
    CELL_KEY,
    FAMILIES,
    TESTERS,
    GridConfig,
    InstanceSpec,
    _h_value,
    adjudicate,
    generate,
    ladder_alpha,
    parse_config_text,
    run_grid,
)
from .metering import RandomStream, certify_non_adaptive
from .reductions import key_lemma_check
from .testers import TesterConfig


_FLAGS = {
    "--n": dict(type=int, default=GridConfig.n[0]),
    "--k": dict(type=int, default=GridConfig.k[0]),
    "--c": dict(type=float, default=GridConfig.c[0]),
    "--h": dict(type=_h_value, default=GridConfig.h),
    "--delta": dict(type=float, default=GridConfig.delta),
    "--trials": dict(type=int, default=GridConfig.trials),
    "--seed": dict(type=int, default=GridConfig.seed),
    "--tester": dict(default=GridConfig.tester[0], choices=sorted(TESTERS)),
    "--family": dict(default=GridConfig.family[0], choices=FAMILIES),
    "--out": dict(default="-"),
}

# `run`'s grid flags, named as the config keys; `run` defaults them to None (unset)
_GRID_KEYS = (*_AXIS_KEYS, *_SCALAR_KEYS)


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


def _open_out(path: str):
    if path == "-":
        return sys.stdout
    return open(path, "w", newline="", encoding="utf-8")


def _cmd_gen(args) -> int:
    spec = InstanceSpec(
        family=args.family,
        n=args.n,
        k=args.k,
        alphabet_size=args.alphabet,
        side=args.side,
        c=args.c,
    )
    x, y, cert = generate(spec, RandomStream(args.seed).child("gen"))
    prefix = args.out if args.out != "-" else "instance"
    with open(f"{prefix}.x", "w", encoding="utf-8") as fh:
        fh.write(" ".join(map(str, x)) + "\n")
    with open(f"{prefix}.y", "w", encoding="utf-8") as fh:
        fh.write(" ".join(map(str, y)) + "\n")
    with open(f"{prefix}.meta", "w", encoding="utf-8") as fh:
        fh.write(
            f"family = {args.family}\nn = {args.n}\nk = {args.k}\nc = {args.c}\n"
            f"alphabet = {args.alphabet}\nside = {args.side}\nseed = {args.seed}\n"
            f"ed_lo = {cert.lo}\ned_hi = {cert.hi}\n"
        )
    print(f"wrote {prefix}.x {prefix}.y {prefix}.meta  (certified ED in [{cert.lo}, {cert.hi}])")
    return 0


def _cmd_run(args) -> int:
    given = {key: getattr(args, key) for key in _GRID_KEYS if getattr(args, key) is not None}
    if args.config:
        if given:
            flags = ", ".join(f"--{key}" for key in given)
            raise ValueError(f"run takes grid flags or --config, not both; got {flags}")
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config_text(fh.read())
    else:
        config = GridConfig(**{k: (v,) if k in _AXIS_KEYS else v for k, v in given.items()})
    out = _open_out(args.out)
    try:
        result = run_grid(config, out)
    finally:
        if out is not sys.stdout:
            out.close()
    for reason in result.reasons:
        print(f"unsupported: {reason}", file=sys.stderr)
    print(
        f"cells={result.cells} rows={result.rows} "
        f"unsupported_cells={result.unsupported_cells}",
        file=sys.stderr,
    )
    return result.exit_code


def _cmd_adjudicate(args) -> int:
    with open(args.inp, newline="", encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        missing = [col for col in ADJUDICATED_COLUMNS if col not in (rows.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.inp} is not a grid CSV: missing columns {', '.join(missing)}")
        reports = adjudicate(rows)
    out = _open_out(args.out)
    try:
        out.write(
            ",".join(CELL_KEY)
            + ",yes_trials,yes_error,yes_lo,yes_hi,no_trials,no_error,no_lo,no_hi\n"
        )
        for r in reports:
            key = ",".join(str(v) for v in r.key)
            out.write(
                f"{key},{r.yes_trials},{r.yes_error:.6f},"
                f"{r.yes_interval[0]:.6f},{r.yes_interval[1]:.6f},"
                f"{r.no_trials},{r.no_error:.6f},"
                f"{r.no_interval[0]:.6f},{r.no_interval[1]:.6f}\n"
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _certify_target(name: str, k: int, c: float, delta: float, h: Optional[int]):
    """Build a (MeteredString, MeteredString, RandomStream) tester closure."""
    alpha = ladder_alpha(k, c)
    beta = k
    cfg = TesterConfig(delta=delta, h=h)

    def tester(xm, ym, rs):
        fn = TESTERS[name]
        return fn(xm.view(), ym.view(), alpha, beta, cfg, rs)

    return tester


def _cmd_certify(args) -> int:
    tester = _certify_target(args.tester, args.k, args.c, args.delta, args.h)
    result = certify_non_adaptive(tester, args.n, args.seed, trials=args.trials)
    if result.passed:
        print(
            f"PASS tester={args.tester} n={args.n} k={args.k} c={args.c} "
            f"trials={result.trials} plan_reads={sum(map(len, result.plan))}"
        )
        return 0
    t, ref, got = result.witness
    print(
        f"FAIL tester={args.tester}: content pair {t} diverged "
        f"(first logs {len(ref[0])}+{len(ref[1])} reads, "
        f"divergent logs {len(got[0])}+{len(got[1])} reads)"
    )
    return 1


def _cmd_lemma_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"lemma-check needs --trials >= 1, got {args.trials}")
    if args.n < 2:
        raise ValueError(f"lemma-check needs --n >= 2, got {args.n}")
    rng = RandomStream(args.seed)
    taus = [int(v) for v in args.tau.split(",")]
    worst = None
    applicable = 0
    for t in range(args.trials):
        crs = rng.child(f"case-{t}")
        n = 2 + crs.child("n").uniform_index(max(1, args.n - 1))
        x = crs.child("x").symbols(n, args.alphabet)
        y = crs.child("y").symbols(n, args.alphabet)
        tau = taus[t % len(taus)]
        report = key_lemma_check(x, y, tau)
        if not report.applicable:
            continue
        applicable += 1
        if not report.holds:
            print(f"COUNTEREXAMPLE n={n} tau={tau} ed={report.ed} levels={report.per_level}")
            return 1
        ratio = 2 * tau * report.witness_sum / report.ed
        if worst is None or ratio < worst[0]:
            worst = (ratio, n, tau, report.ed)
    print(
        f"PASS {applicable}/{args.trials} applicable cases, "
        f"tightest witness ratio {worst[0]:.3f} at n={worst[1]} tau={worst[2]} ed={worst[3]}"
        if worst
        else f"PASS (no applicable cases among {args.trials})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapedit",
        description="Gap edit distance testers: experiments, certificates, and checks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", help="generate one instance family sample to files", allow_abbrev=False
    )
    _add_flags(p, "--n", "--k", "--c", "--seed", "--family", "--out")
    p.add_argument("--side", default="yes", choices=("yes", "no"))
    p.add_argument("--alphabet", type=int, default=1 << 32)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run", help="run an experiment grid, emitting CSV", allow_abbrev=False)
    _add_flags(p, *_FLAGS)
    p.add_argument("--config", default=None, help="grid config file (key = v1, v2 lines)")
    p.set_defaults(fn=_cmd_run, **dict.fromkeys(_GRID_KEYS))

    p = sub.add_parser(
        "adjudicate", help="error rates + Wilson intervals from a trials CSV", allow_abbrev=False
    )
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_adjudicate)

    p = sub.add_parser(
        "certify-nonadaptive",
        help="replay a tester across contents and compare read logs",
        allow_abbrev=False,
    )
    _add_flags(p, "--n", "--k", "--c", "--h", "--delta", "--trials", "--seed", "--tester")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser(
        "lemma-check", help="brute-force the witness-count inequality", allow_abbrev=False
    )
    p.add_argument("--n", type=int, default=128, help="maximum string length")
    p.add_argument("--tau", default="1,2,4,8")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--alphabet", type=int, default=2)
    p.set_defaults(fn=_cmd_lemma_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
