"""Command-line interface.

Subcommands: simulate (metrics for one network), sweep (radius sweeps as
CSV), crossover (per-N crossing radius table), verify (closed forms against
brute-force simulation, every case in this process).  All outputs are
deterministic for a fixed configuration.

Errors come in two classes.  A malformed option, on the command line or
from ``--config`` (an unknown option, a missing value, a value its
argparse type or choices refuse), prints argparse's usage block and its
``error:`` line on stderr and exits with code 2.  Every other error (a
value out of range, the oracle size cap, an undefined heralding
efficiency, a crossover root out of reach, an unreadable config file)
prints one ``error:`` line on stderr and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence, TextIO

from .analytic import asymptotic_chord, closed_h_eff, closed_p_hr, closed_p_suc, lhv_threshold
from .experiments import (
    DEFAULT_VERIFY_ETAS,
    DEFAULT_VERIFY_PARTIES,
    VERIFY_TOL,
    SweepRecord,
    crossover_curve,
    fmt,
    sweep_vs_radius,
    verification_report,
    verify_suite,
    write_sweep_csv,
    write_verification_json,
)
from .heralding import check_oracle_size, compute_metrics
from .schemes import (DEFAULT_ALPHA, SCHEMES, NetworkGeometry, build_scheme, check_attenuation,
                      eta_for_geometry)

DEFAULT_SWEEP_PARTIES = (4, 7, 13, 20)
DEFAULT_RADIUS_GRID = "0:50:0.5"

# The most rows a sweep or crossover table, or a party range, may hold.  A
# million sweep rows take about 13 s and 340 MB as CSV, 50 s and 600 MB as JSON.
MAX_ROWS = 1_000_000


class CliError(Exception):
    """User-facing error: message printed to stderr, exit code 1."""


def parse_parties(text: str) -> list[int]:
    """Accept a single count "4" or an inclusive range "2..6" of at most
    ``MAX_ROWS`` counts."""
    try:
        lo_text, hi_text = text.split("..", 1) if ".." in text else (text, text)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError
    except ValueError:
        raise CliError(f"cannot parse party count {text!r}; use INT or MIN..MAX") from None
    if lo < 2:
        raise CliError("party counts must be at least 2")
    check_rows(hi - lo + 1)
    return list(range(lo, hi + 1))


def parse_radius_grid(text: str) -> list[float]:
    """Parse START:STOP:STEP into an ascending inclusive grid of at most
    ``MAX_ROWS`` radii."""
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
    steps = (stop - start) / step + 1e-9  # infinite for a step far below the span
    count = math.floor(steps) + 1 if math.isfinite(steps) else steps
    check_rows(count)
    return [start + i * step for i in range(count)]


def check_rows(count: float) -> None:
    """Refuse a table of more than ``MAX_ROWS`` rows before it is built."""
    if count > MAX_ROWS:
        raise CliError(f"{count:.4g} rows requested; a table holds at most {MAX_ROWS:,}")


def resolve_schemes(choice: str) -> list[str]:
    return list(SCHEMES) if choice == "all" else [choice]


def _counts_text(values: Sequence[int]) -> str:
    """A default party list as help text: MIN..MAX when it is a run."""
    if len(values) > 1 and list(values) == list(range(values[0], values[-1] + 1)):
        return f"{values[0]}..{values[-1]}"
    return ", ".join(map(str, values))


def _add_alpha(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                        help="fibre attenuation per km (default %(default)s)")


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    """Output and config options; ``--format`` offers ``formats``, the first as default."""
    parser.add_argument("--out", help="write output to this path instead of stdout")
    if formats:
        parser.add_argument("--format", choices=formats, default=None,
                            help=f"output format (default {formats[0]})")
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
    _add_alpha(p_sim)
    _add_common(p_sim, ("text", "csv", "json"))

    p_sweep = sub.add_parser("sweep", help="analytic metrics over a radius grid, CSV")
    p_sweep.add_argument("--scheme", choices=(*SCHEMES, "all"), default="all")
    p_sweep.add_argument("--parties", default=None,
                         help="party count INT or MIN..MAX "
                              f"(default {_counts_text(DEFAULT_SWEEP_PARTIES)})")
    p_sweep.add_argument("--radius-grid", default=DEFAULT_RADIUS_GRID,
                         help="radius grid START:STOP:STEP in km (default %(default)s)")
    _add_alpha(p_sweep)
    _add_common(p_sweep, ("csv", "json"))

    p_cross = sub.add_parser("crossover", help="crossing radius and chord per party count")
    p_cross.add_argument("--parties", default="2..30", help="party range MIN..MAX")
    _add_alpha(p_cross)
    _add_common(p_cross, ("text", "csv", "json"))

    p_verify = sub.add_parser("verify", help="closed forms against brute-force simulation")
    p_verify.add_argument("--scheme", choices=(*SCHEMES, "all"), default="all")
    p_verify.add_argument("--parties", default=None,
                          help="party count INT or MIN..MAX "
                               f"(default {_counts_text(DEFAULT_VERIFY_PARTIES)})")
    p_verify.add_argument("--eta", type=float, default=None,
                          help="single transmission value (default grid "
                               f"{' '.join(map(str, DEFAULT_VERIFY_ETAS))})")
    p_verify.add_argument("--sc-phr-uncorrected", action="store_true",
                          help="compare sc herald probability against the uncorrected "
                               "variant (eta^2N + (3 eta^2 - 2 eta^4)^N)/2^N, which is "
                               "2^N times the consistent form and fails at eta=1")
    # verify runs in one process; 1 stays accepted for scripts that pass it
    p_verify.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)
    _add_common(p_verify)
    return parser


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> argparse.Namespace:
    """Parse ``argv`` with a ``--config`` file's values as options after the
    subcommand: ``--key=value``, the bare ``--key`` for ``true`` and nothing
    for ``null`` or ``false``.  The command line's own options follow and win."""
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
        unknown = set(stored) - set(vars(args))
        if unknown:
            raise CliError(f"config {args.config} has unknown keys: {sorted(unknown)}")
        options = [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
                   for key, value in stored.items() if value is not None and value is not False]
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + options + argv[at:])
    return args


def _dump_config(args: argparse.Namespace, stream: TextIO) -> None:
    config = {k: v for k, v in sorted(vars(args).items()) if k not in ("config", "dump_config")}
    json.dump(config, stream, indent=2)
    stream.write("\n")
    stream.flush()


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
    # Flushed here, a closed stdout raises inside main() rather than at exit.
    sys.stdout.flush()


def cmd_simulate(args: argparse.Namespace) -> int:
    if (args.eta is None) == (args.radius is None):
        raise CliError("exactly one of --eta or --radius is required")
    if args.eta is not None:
        check_attenuation(args.alpha)
    parties = parse_parties(args.parties)
    schemes = resolve_schemes(args.scheme)
    for scheme in schemes:
        check_oracle_size(scheme, max(parties))

    rows = []
    for scheme in schemes:
        for n in parties:
            if args.eta is not None:
                eta, radius = args.eta, None
            else:
                geometry = NetworkGeometry(n, args.radius, args.alpha)
                eta, radius = eta_for_geometry(scheme, geometry), args.radius
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
    schemes = resolve_schemes(args.scheme)
    check_rows(len(schemes) * len(parties) * len(grid))
    records = sweep_vs_radius(schemes, parties, grid, args.alpha)
    fmt_choice = args.format or "csv"

    def render(stream: TextIO) -> None:
        if fmt_choice == "json":
            json.dump([r._asdict() for r in records], stream, indent=2)
            stream.write("\n")
        else:
            write_sweep_csv(records, stream)

    _emit(args, render)
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    parties = parse_parties(args.parties)
    points = crossover_curve(min(parties), max(parties), args.alpha)
    # The rows stand on their own: an asymptote out of range is reported after them.
    try:
        asym, failure = asymptotic_chord(args.alpha), None
    except ArithmeticError as exc:
        asym, failure = None, exc
    fmt_choice = args.format or "text"

    def render(stream: TextIO) -> None:
        if fmt_choice == "json":
            json.dump({
                "points": [p._asdict() for p in points],
                "asymptote": asym._asdict() if asym else None,
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
        if asym:
            stream.write(
                f"chord limit ln(2)/(2*alpha) = {fmt(asym.analytic_limit_km)} km; "
                f"numeric chord at N={asym.reference_n} = {fmt(asym.numeric_at_reference_n_km)} km; "
                f"quoted reference {fmt(asym.quoted_reference_km)} km is reported for comparison "
                "and is not reproduced by this relation\n"
            )

    _emit(args, render)
    if failure:
        print(f"error: chord asymptote: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    parties = list(DEFAULT_VERIFY_PARTIES) if args.parties is None else parse_parties(args.parties)
    etas = list(DEFAULT_VERIFY_ETAS) if args.eta is None else [args.eta]
    rows = verify_suite(
        parties, etas, resolve_schemes(args.scheme),
        sc_phr_uncorrected=args.sc_phr_uncorrected,
    )
    _emit(args, lambda stream: write_verification_json(rows, stream))
    summary = verification_report(rows)["summary"]
    print(
        f"verified {summary['passed']}/{summary['total']} comparisons within {VERIFY_TOL:g}; "
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
    # OracleSizeError is a ValueError; UndefinedMetricError and RootBracketError are arithmetic
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (``heraldnet ... | head``): stop quietly, and
        # send what is still buffered to devnull so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
