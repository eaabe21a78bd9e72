"""Batch experiment driver.

Subcommands reproduce the capacity tables, plan rates, run end-to-end chains,
run the linear-code detection experiment, and measure covertness.  Every
stochastic command requires --seed and, re-run with the same configuration,
produces byte-identical output files (no timestamps, sorted JSON keys).

Channels are given inline ("bsc:0.1", "bac:0.1,0.4") or as a file path.  A
channel file holds two whitespace-separated probability rows, one per line
(row for input 0 first); '#' starts a comment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import adversary, codec, levels
from .channels import LN2, Dmc, bac, bsc, make_dmc


class CliError(Exception):
    pass


def parse_channel(spec: str) -> Dmc:
    if spec.startswith("bsc:"):
        return bsc(float(spec[4:]))
    if spec.startswith("bac:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise CliError(f"bad channel spec {spec!r}: expected bac:p01,p10")
        return bac(float(parts[0]), float(parts[1]))
    return load_channel_file(spec)


def _read_rows(path: str, kind: str, parse) -> list[list]:
    """Whitespace-separated rows of a text file, '#' starting a comment."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"{kind} file not found: {path}")
    lines = (line.split("#", 1)[0].split() for line in p.read_text().splitlines())
    return [[parse(tok) for tok in toks] for toks in lines if toks]


def load_channel_file(path: str) -> Dmc:
    rows = _read_rows(path, "channel", float)
    if len(rows) != 2:
        raise CliError(f"channel file {path} must hold exactly two rows")
    try:
        return make_dmc(rows[0], rows[1])
    except ValueError as e:
        raise CliError(f"channel file {path}: {e}") from e


def load_generator(spec: str, rng: np.random.Generator) -> adversary.LinearCode:
    kind, colon, dims = spec.partition(":")
    if not (colon and kind in ("random", "identity")):
        rows = _read_rows(spec, "generator", int)
        for r, row in enumerate(rows[1:], start=2):
            if len(row) != len(rows[0]):
                raise CliError(f"generator file {spec}: row {r} has {len(row)} entries, "
                               f"row 1 has {len(rows[0])}")
        return adversary.LinearCode(generator=np.array(rows))
    try:
        n, k = (int(v) for v in dims.split(","))
    except ValueError:
        raise CliError(f"bad generator spec {spec!r}: expected {kind}:n,k") from None
    if kind == "random":
        return adversary.random_linear_code(n, k, rng)
    return adversary.identity_prefix_code(n, k)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _record(value):
    """JSON-ready data of a result dataclass: field names become keys, dict
    keys strings, tuples lists and numpy scalars Python numbers."""
    if dataclasses.is_dataclass(value):
        return {f.name: _record(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _record(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_record(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tables(args) -> int:
    bob = parse_channel(args.bob)
    willie = parse_channel(args.willie) if args.willie else bob
    rows = levels.level_mi_table(bob, willie, args.levels)
    # the capacities come in bits, the divergences and the bound in nats
    per_bit = LN2 if args.base == "nats" else 1.0
    per_nat = 1.0 if args.base == "nats" else 1.0 / LN2
    lines = [
        f"# covertppm tables: levels={args.levels} base={args.base}",
        f"# bob={bob!r}",
        f"# willie={willie!r}",
        f"# D(P1||P0)={_fmt(bob.stats.kl * per_nat)} "
        f"D(Q1||Q0)={_fmt(willie.stats.kl * per_nat)} ({args.base})",
        f"level,I_Y ({args.base}),I_Z ({args.base}),diff ({args.base}),"
        f"C_bound ({args.base})",
    ]
    for row in rows:
        i_y, i_z, diff = (v * per_bit for v in (row.i_y, row.i_z, row.diff))
        bound = levels.level_capacity_bound(bob.stats, row.level) * per_nat
        lines.append(f"{row.level},{i_y:.4f},{i_z:.4f},{diff:.4f},{bound:.4f}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _plan(args, bob: Dmc, willie: Dmc, blocks: int) -> levels.RatePlan:
    return levels.msd_rate_plan(bob, willie, args.levels, args.delta, blocks, args.epsilon,
                                degraded=args.degraded, ell_override=args.ell)


def cmd_plan(args) -> int:
    bob = parse_channel(args.bob)
    willie = parse_channel(args.willie)
    plan = _plan(args, bob, willie, args.blocks)
    summary = levels.throughput_summary(plan, bob.stats, willie.stats)
    _write(args.out, levels.plan_to_text(plan))
    key_bits = plan.ell * plan.sum_rk()
    print(f"plan written: q={plan.q} m={plan.m} ell={plan.ell} B={plan.B} u={plan.u}")
    print(f"keys required: {_fmt(key_bits)} bits/block "
          f"(secret surplus {_fmt(plan.ell * plan.sum_rv())} bits/block)")
    print(f"covert throughput {_fmt(summary.covert_throughput)} "
          f"vs capacity {_fmt(summary.covert_capacity)} (bits/sqrt(n delta))")
    print(f"key throughput {_fmt(summary.key_throughput)} "
          f"vs capacity {_fmt(summary.key_capacity)}")
    return 0


def cmd_simulate(args) -> int:
    bob = parse_channel(args.bob)
    willie = parse_channel(args.willie)
    rng = np.random.default_rng(args.seed)
    plan = _plan(args, bob, willie, args.blocks)
    session = codec.build_session(
        plan, bob, willie, rng,
        resolvability=args.resolvability,
        construction_trials=args.trials,
        rate_scale=args.rate_scale,
    )
    report = codec.run_chain(session, args.blocks, rng)
    header = {
        "command": "simulate",
        "seed": args.seed,
        "bob": repr(bob),
        "willie": repr(willie),
        "q": plan.q, "m": plan.m, "ell": session.ell, "B": args.blocks,
        "units": "bits",
        "delta": plan.delta, "delta_effective": session.delta_effective,
        "epsilon": plan.epsilon, "u": plan.u,
        "resolvability": args.resolvability,
        "construction_trials": args.trials,
        "genie_levels": list(report.genie_levels),
    }
    body = _record(report)
    blocks = body.pop("blocks")
    records = [header] + blocks + [{"summary": body}]
    _write(args.out, _jsonl(records))
    return 0


def cmd_detect(args) -> int:
    willie = parse_channel(args.willie)
    rng = np.random.default_rng(args.seed)
    code = load_generator(args.generator, rng)
    report = adversary.detect_linear_code(code, willie, args.trials, rng)
    payload = {
        "command": "detect",
        "seed": args.seed,
        "willie": repr(willie),
        "generator": args.generator,
        "units": "base-free statistic",
        "n": code.n, "k": code.k,
        **_record(report),
    }
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if report.undetectable:
        print("warden channel has chi2 = 0: statistic degenerate, undetectable")
    return 0


def cmd_covertness(args) -> int:
    willie = parse_channel(args.willie)
    rng = np.random.default_rng(args.seed)
    if args.exact:
        m, ell = args.order, 1 if args.ell is None else args.ell
        if args.source == "uniform":
            pw = adversary.pw_uniform(m, ell)
        elif args.source.startswith("single:"):
            positions = [int(v) for v in args.source[7:].split(",")]
            if len(positions) != ell:
                raise CliError("single: needs one position per super-symbol")
            pw = adversary.pw_single(positions)
        else:
            raise CliError(f"unknown exact source {args.source!r}")
        report = adversary.exact_kl_oracle(willie, m, ell, pw)
        payload = {
            "command": "covertness-exact",
            "seed": args.seed,
            "willie": repr(willie),
            "source": args.source,
            "units": "nats",
            **_record(report),
            "inequality_holds": report.inequality_holds(),
        }
        _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    if args.bob is None:
        raise CliError("covertness estimate needs --bob (only --exact runs without it)")
    if args.trials < 1:
        # before the session build, which takes seconds at real geometries
        raise CliError(f"covertness estimate needs at least 1 block, got {args.trials}")
    bob = parse_channel(args.bob)
    plan = _plan(args, bob, willie, 1)
    session = codec.build_session(
        plan, bob, willie, rng, resolvability=args.resolvability,
        construction_trials=args.construction_trials,
    )
    estimate = adversary.covertness_estimate(session, args.trials, rng)
    payload = {
        "command": "covertness",
        "seed": args.seed,
        "bob": repr(bob),
        "willie": repr(willie),
        "q": plan.q, "m": plan.m, "ell": session.ell,
        "units": "nats",
        **_record(estimate),
    }
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_channel_args(p, need_willie=True):
    p.add_argument("--bob", required=True,
                   help="Bob's channel: bsc:p, bac:p01,p10, or a file")
    p.add_argument("--willie", required=need_willie,
                   help="Willie's channel, same formats")


def _add_plan_args(p):
    """Both channels and the rate plan's options, as plan and simulate take them."""
    _add_channel_args(p)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--degraded", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="covertppm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="per-level capacity/MI tables (CSV)")
    _add_channel_args(p, need_willie=False)
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--base", choices=["bits", "nats"], default="bits")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("plan", help="MSD rate plan and throughput summary")
    _add_plan_args(p)
    p.add_argument("--ell", type=int, default=None,
                   help="override the planned blocklength")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run a chained end-to-end simulation (JSONL)")
    _add_plan_args(p)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--resolvability", choices=["full_uniform", "extractor"],
                   default="full_uniform")
    p.add_argument("--trials", type=int, default=2000,
                   help="Monte-Carlo construction trials per level code")
    p.add_argument("--rate-scale", type=float, default=1.0,
                   help="back payload rates off the asymptotic plan")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="linear-code detection experiment (JSON)")
    p.add_argument("--willie", required=True)
    p.add_argument("--generator", required=True,
                   help="generator file, random:n,k, or identity:n,k")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("covertness", help="covertness measurement (JSON)")
    p.add_argument("--willie", required=True)
    p.add_argument("--bob", help="required unless --exact")
    p.add_argument("--exact", action="store_true",
                   help="tiny-instance exact enumeration")
    p.add_argument("--order", type=int, default=2, help="PPM order m (exact mode)")
    p.add_argument("--ell", type=int, default=None,
                   help="super-symbols: exact mode (default 1), or override "
                        "the planned blocklength")
    p.add_argument("--source", default="uniform",
                   help="exact-mode input law: uniform or single:p1,p2,...")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--degraded", action="store_true")
    p.add_argument("--resolvability", choices=["full_uniform", "extractor"],
                   default="full_uniform")
    p.add_argument("--construction-trials", type=int, default=1000)
    p.add_argument("--trials", type=int, default=200,
                   help="sampled blocks (estimate mode)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_covertness)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, adversary.OracleBudgetError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
