"""Command-line interface.

Subcommands: simulate (metrics for one network), sweep (radius sweeps as
CSV), crossover (per-N crossing radius table), verify (closed forms against
brute-force simulation).  All outputs are deterministic for a fixed
configuration; worker count (HERALDNET_THREADS) never changes file content.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Sequence, TextIO

from .analytic import asymptotic_chord, closed_h_eff, closed_p_hr, closed_p_suc, lhv_threshold
from .experiments import (
    DEFAULT_VERIFY_ETAS,
    DEFAULT_VERIFY_PARTIES,
    SweepRecord,
    crossover_curve,
    fmt,
    sweep_vs_radius,
    verification_report,
    verify_suite,
    worker_count,
    write_sweep_csv,
)
from .heralding import OracleSizeError, UndefinedMetricError, check_oracle_size, compute_metrics
from .schemes import DEFAULT_ALPHA, SCHEMES, NetworkGeometry, build_scheme, eta_for_geometry

DEFAULT_SWEEP_PARTIES = (4, 7, 13, 20)
DEFAULT_RADIUS_GRID = "0:50:0.5"


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 1."""


def parse_parties(text: str) -> list[int]:
    """Accept a single count "4" or an inclusive range "2..6"."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
            values = list(range(lo, hi + 1))
        else:
            values = [int(text)]
    except ValueError:
        raise CliError(f"cannot parse party count {text!r}; use INT or MIN..MAX") from None
    if any(v < 2 for v in values):
        raise CliError("party counts must be at least 2")
    return values


def parse_radius_grid(text: str) -> list[float]:
    """Parse START:STOP:STEP into an ascending inclusive grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"cannot parse radius grid {text!r}; use START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"cannot parse radius grid {text!r}; use START:STOP:STEP") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise CliError("radius grid values must be finite")
    if step <= 0 or stop < start or start < 0:
        raise CliError("radius grid needs start >= 0, stop >= start and step > 0")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def resolve_schemes(choice: str) -> list[str]:
    return list(SCHEMES) if choice == "all" else [choice]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="fibre attenuation per km (default %(default)s)")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=("text", "csv", "json"), default=None,
                        help="output format (default depends on the subcommand)")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="root-finding tolerance in km for crossover radii")
    parser.add_argument("--config", help="JSON file of defaults, as written by --dump-config")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the resolved configuration as JSON and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldnet",
        description="Heralded GHZ distribution over lossy channels: "
                    "simulation, closed forms, sweeps and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="metrics for one network configuration")
    p_sim.add_argument("--scheme", choices=(*SCHEMES, "all"), default="all")
    p_sim.add_argument("--parties", default="3", help="party count INT or range MIN..MAX")
    p_sim.add_argument("--radius", type=float, help="ring radius in km (channel lengths follow)")
    p_sim.add_argument("--eta", type=float, help="channel transmission, overrides geometry")
    _add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="analytic metrics over a radius grid, CSV")
    p_sweep.add_argument("--scheme", choices=(*SCHEMES, "all"), default="all")
    p_sweep.add_argument("--parties", default=None,
                         help="party count INT or MIN..MAX (default 4, 7, 13, 20)")
    p_sweep.add_argument("--radius-grid", default=DEFAULT_RADIUS_GRID,
                         help="radius grid START:STOP:STEP in km (default %(default)s)")
    _add_common(p_sweep)

    p_cross = sub.add_parser("crossover", help="crossing radius and chord per party count")
    p_cross.add_argument("--parties", default="2..30", help="party range MIN..MAX")
    _add_common(p_cross)

    p_verify = sub.add_parser("verify", help="closed forms against brute-force simulation")
    p_verify.add_argument("--scheme", choices=(*SCHEMES, "all"), default="all")
    p_verify.add_argument("--parties", default=None,
                          help="party count INT or MIN..MAX within 2..6 (default 2..4)")
    p_verify.add_argument("--eta", type=float, default=None,
                          help="single transmission value (default grid 1.0 0.9 0.7 0.5)")
    p_verify.add_argument("--sc-phr-uncorrected", action="store_true",
                          help="compare sc herald probability against the uncorrected "
                               "variant (eta^2N + (3 eta^2 - 2 eta^4)^N)/2^N, which is "
                               "2^N times the consistent form and fails at eta=1")
    p_verify.add_argument("--workers", type=int, default=None,
                          help="simulation worker processes (default HERALDNET_THREADS or 1)")
    _add_common(p_verify)

    # kept for --config: file defaults must be set on the subparser because
    # subparsers parse into a fresh namespace and would mask them otherwise
    parser.subparser_map = {
        "simulate": p_sim, "sweep": p_sweep, "crossover": p_cross, "verify": p_verify
    }
    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                stored = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(stored, dict):
            raise CliError(f"config {args.config} must hold a JSON object")
        stored.pop("command", None)
        base = vars(args)
        unknown = set(stored) - set(base)
        if unknown:
            raise CliError(f"config {args.config} has unknown keys: {sorted(unknown)}")
        # File values fill in everything the command line left at default;
        # re-parsing with updated defaults keeps explicit flags winning.
        parser.subparser_map[args.command].set_defaults(**stored)
        args = parser.parse_args(argv)
    return args


def _dump_config(args: argparse.Namespace, stream: TextIO) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("config", "dump_config")}
    json.dump(config, stream, indent=2)
    stream.write("\n")


def _open_out(args: argparse.Namespace):
    if args.out:
        try:
            return open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
    return None


def _emit(args: argparse.Namespace, render) -> None:
    stream = _open_out(args)
    try:
        render(stream or sys.stdout)
    finally:
        if stream:
            stream.close()


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.eta is None) == (args.radius is None):
        raise CliError("exactly one of --eta or --radius is required")
    parties = parse_parties(args.parties)
    for n in parties:
        check_oracle_size(n)
    if args.eta is not None and not 0.0 <= args.eta <= 1.0:
        raise CliError(f"eta must lie in [0, 1], got {args.eta}")
    if args.eta == 0.0:
        raise CliError("heralding efficiency undefined at eta=0")

    rows = []
    for scheme in resolve_schemes(args.scheme):
        for n in parties:
            if args.eta is not None:
                eta, radius = args.eta, None
            else:
                geometry = NetworkGeometry(n, args.radius, args.alpha)
                eta, radius = eta_for_geometry(scheme, geometry), args.radius
                if eta == 0.0:
                    raise CliError("heralding efficiency undefined at eta=0")
            metrics = compute_metrics(build_scheme(scheme, n, eta))
            common = {"scheme": scheme, "n_parties": n, "radius_km": radius,
                      "alpha": args.alpha, "eta": eta, "h_th": lhv_threshold(n)}
            rows.append(common | {"source": "analytic",
                                  "p_suc": closed_p_suc(scheme, n, eta),
                                  "p_hr": closed_p_hr(scheme, n, eta),
                                  "h_eff": closed_h_eff(scheme, n, eta)})
            rows.append(common | {"source": "simulated", "p_suc": metrics.p_suc,
                                  "p_hr": metrics.p_hr, "h_eff": metrics.h_eff})

    fmt_choice = args.format or "text"

    def render(stream: TextIO) -> None:
        if fmt_choice == "json":
            json.dump(rows, stream, indent=2)
            stream.write("\n")
            return
        if fmt_choice == "csv":
            write_sweep_csv([SweepRecord(**r) for r in rows], stream)
            return
        for r in rows:
            stream.write(
                f"{r['scheme']} N={r['n_parties']} eta={fmt(r['eta'])} {r['source']:<9} "
                f"p_suc={fmt(r['p_suc'])} p_hr={fmt(r['p_hr'])} h_eff={fmt(r['h_eff'])}\n"
            )

    _emit(args, render)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    parties = list(DEFAULT_SWEEP_PARTIES) if args.parties is None else parse_parties(args.parties)
    grid = parse_radius_grid(args.radius_grid)
    records = sweep_vs_radius(resolve_schemes(args.scheme), parties, grid, args.alpha)
    fmt_choice = args.format or "csv"

    def render(stream: TextIO) -> None:
        if fmt_choice == "json":
            json.dump([dataclasses.asdict(r) for r in records], stream, indent=2)
            stream.write("\n")
        else:
            write_sweep_csv(records, stream)

    _emit(args, render)
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    parties = parse_parties(args.parties)
    points = crossover_curve(min(parties), max(parties), args.alpha, tol=args.tol)
    points = [p for p in points if p.n_parties in set(parties)]
    asym = asymptotic_chord(args.alpha)
    fmt_choice = args.format or "text"

    def render(stream: TextIO) -> None:
        if fmt_choice == "json":
            json.dump({
                "points": [p._asdict() for p in points],
                "asymptote": {
                    "alpha": asym.alpha,
                    "analytic_limit_km": asym.analytic_limit_km,
                    "reference_n": asym.reference_n,
                    "numeric_at_reference_n_km": asym.numeric_at_reference_n_km,
                    "quoted_reference_km": asym.quoted_reference_km,
                },
            }, stream, indent=2)
            stream.write("\n")
            return
        if fmt_choice == "csv":
            stream.write("N,R_c_km,l_c_km\n")
            for p in points:
                stream.write(f"{p.n_parties},{fmt(p.radius_km)},{fmt(p.chord_km)}\n")
            return
        stream.write(f"{'N':>3} {'R_c_km':>14} {'l_c_km':>14}\n")
        for p in points:
            stream.write(f"{p.n_parties:>3} {fmt(p.radius_km):>14} {fmt(p.chord_km):>14}\n")
        stream.write(
            f"chord limit ln(2)/(2*alpha) = {fmt(asym.analytic_limit_km)} km; "
            f"numeric chord at N={asym.reference_n} = {fmt(asym.numeric_at_reference_n_km)} km; "
            f"quoted reference {fmt(asym.quoted_reference_km)} km is reported for comparison "
            "and is not reproduced by this relation\n"
        )

    _emit(args, render)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    parties = list(DEFAULT_VERIFY_PARTIES) if args.parties is None else parse_parties(args.parties)
    etas = list(DEFAULT_VERIFY_ETAS) if args.eta is None else [args.eta]
    rows = verify_suite(
        parties, etas, resolve_schemes(args.scheme),
        sc_phr_uncorrected=args.sc_phr_uncorrected,
        workers=worker_count(args.workers),
    )
    report = verification_report(rows)

    def render(stream: TextIO) -> None:
        json.dump(report, stream, indent=2)
        stream.write("\n")

    _emit(args, render)
    summary = report["summary"]
    print(
        f"verified {summary['passed']}/{summary['total']} comparisons within 1e-09; "
        f"{summary['failed']} failed",
        file=sys.stderr,
    )
    return 0 if summary["failed"] == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config_file(list(argv) if argv is not None else sys.argv[1:], parser)
        if args.dump_config:
            _dump_config(args, sys.stdout)
            return 0
        handler = {
            "simulate": cmd_simulate,
            "sweep": cmd_sweep,
            "crossover": cmd_crossover,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OracleSizeError, UndefinedMetricError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
