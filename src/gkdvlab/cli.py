"""Command line front end.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(blowup, non-contracting iteration, an overflowing norm weight,
non-finite samples or coefficients, a multilinear denominator that
underflows or overflows, or an overflowing apriori bound), 4 not enough
usable data for the requested analysis.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .evolution import NonContractionError, NumericalBlowupError
from .harness import (
    KINDS,
    ConfigError,
    InsufficientDataError,
    RunConfig,
    apply_overrides,
    default_out_root,
    parse_config,
    run,
    sweep,
)
from .spectral import NonFiniteDataError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INSUFFICIENT_DATA = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value config file")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--seed", type=int, metavar="N", help="override the RNG seed")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkdvlab",
        description="coupled gKdV simulator and estimate lab",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_common(subs.add_parser(kind, help=f"run a {kind} experiment"))
    sw = subs.add_parser("sweep", help="run a parameter sweep")
    _add_common(sw)
    sw.add_argument(
        "--vary",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="sweep one key over comma separated values (repeatable)",
    )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        config = parse_config(text)
    else:
        config = RunConfig()
    if args.overrides:
        config = apply_overrides(config, args.overrides)
    extra = []
    if args.seed is not None:
        extra.append(f"seed={args.seed}")
    if args.out:
        extra.append(f"out={args.out}")
    if extra:
        config = apply_overrides(config, extra, origin="flag")
    return config


def _parse_vary(pairs: list[str]) -> dict[str, list[str]]:
    vary: dict[str, list[str]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--vary: expected KEY=V1,V2,..., got {pair!r}")
        key, values = pair.split("=", 1)
        key = key.strip()
        if key in vary:
            raise ConfigError(f"--vary: key {key!r} given twice")
        vary[key] = [v.strip() for v in values.split(",") if v.strip()]
    return vary


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "sweep":
            vary = _parse_vary(args.vary)
            if not vary:
                raise ConfigError("sweep needs at least one --vary KEY=V1,V2,...")
            out_root = config.out or str(default_out_root() / "sweep")
            sweep(config, vary, out_root)
        else:
            config = dataclasses.replace(config, kind=args.command)
            run(config)
    except ConfigError as exc:
        print(f"gkdvlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalBlowupError, NonContractionError, OverflowError,
            NonFiniteDataError) as exc:
        print(f"gkdvlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InsufficientDataError as exc:
        print(f"gkdvlab: insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except ValueError as exc:
        print(f"gkdvlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
