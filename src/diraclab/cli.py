"""Command line front end.

One executable with single-solve subcommands (radial, multicenter) that
emit JSON, and experiment subcommands that emit deterministic CSV plus a
JSON manifest.  Exit codes: 0 success, 1 usage or config error, 2 solver
failure, 3 a converged margin beyond its budget.  A solve prints the
flags and diagnostics its result holds, and decides none of its own.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import charges
from .configio import ConfigDoc, doc_from_charge, emit_config, load_config
from .errors import (ChargeModelError, ConfigError, IllConditionedBasisError,
                     NoGapEigenvalueError, UncertifiedEigenvalueError)
from .experiments import (EXIT_SOLVER, EXIT_USAGE, KINDS, config_from_doc,
                          run_experiment)
from .gaussian import default_spinor_basis
from .multicenter import GapSolveConfig, solve_gap
from .radial import (RadialGrid, RadialSolveConfig,
                     lowest_gap_eigenvalue_radial)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit EXIT_USAGE (argparse's
    own code, 2, means a solver failure here); subparsers share the
    class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    as it was."""
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file")
    common.add_argument("--out", metavar="PATH",
                        help="output file (JSON for solves, CSV for scans)")
    common.add_argument("--workers", type=int, metavar="N",
                        help="parallel scan workers")
    common.add_argument("--verbose", action="store_true",
                        help="progress and summary lines on stderr")
    common.add_argument("--print-config", action="store_true",
                        help="echo the canonical config and exit")

    parser = _Parser(
        prog="dirac-lab",
        description="Gap eigenvalues of Coulomb-Dirac operators and "
                    "related scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rad = sub.add_parser("radial", parents=[common],
                           help="single radially symmetric gap solve")
    p_rad.add_argument("--nu", type=float, metavar="NU",
                       help="point charge shortcut instead of --config")
    p_rad.add_argument("--kappa", type=int, default=-1,
                       help="angular channel (default -1); kappa > 0 is "
                            "refused: the solver reads a spurious level")

    sub.add_parser("multicenter", parents=[common],
                   help="single 3D gap solve for an atomic charge")

    for name, (_, _, blurb) in KINDS.items():
        sub.add_parser(name, parents=[common], help=blurb)
    return parser


def _load_doc(args) -> ConfigDoc:
    """The command's config: a point charge for `radial --nu`, else the
    file --config names."""
    if getattr(args, "nu", None) is not None:
        if args.config is not None:
            raise ConfigError("radial takes --nu or --config, not both")
        return doc_from_charge(charges.atom((0.0, 0.0, 0.0), args.nu))
    if args.config is None:
        raise ConfigError(f"{args.command} needs --config")
    return load_config(args.config)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_solve(args, res, **head) -> int:
    """Write a solve's JSON and, with --verbose, one stderr line of `head`,
    lambda1, the result's diagnostics and its flags (`-` for none): reals
    at 3 significant digits, lambda1 and start at 12."""
    if args.verbose:
        cells = {**head, "lambda1": res.lambda1, **res.diagnostics,
                 "flags": ",".join(res.flags) or "-"}
        print(" ".join(f"{k}={v:.{12 if k in ('lambda1', 'start') else 3}g}"
                       if isinstance(v, float) else f"{k}={v}"
                       for k, v in cells.items()), file=sys.stderr)
    _write_text(json.dumps(res.to_json(), indent=2, sort_keys=True), args.out)
    return 0


def _cmd_radial(args, doc: ConfigDoc) -> int:
    if args.kappa > 0:
        raise ConfigError(f"--kappa {args.kappa}: kappa > 0 is refused, as "
                          "the solver reads the kappa = -|kappa| level there")
    mu = doc.charge()
    if not mu.radially_symmetric:
        raise ConfigError("charge is not radially symmetric; "
                          "use the multicenter subcommand")
    res = lowest_gap_eigenvalue_radial(mu, args.kappa,
                                       doc.build(RadialGrid, "grid"),
                                       doc.build(RadialSolveConfig, "solver"))
    return _print_solve(args, res, kappa=res.kappa)


def _cmd_multicenter(args, doc: ConfigDoc) -> int:
    mu = doc.charge()
    basis = default_spinor_basis(mu, **doc.sections.get("basis", {}))
    return _print_solve(args, solve_gap(
        basis, mu, config=doc.build(GapSolveConfig, "solver", "grid")))


def _cmd_experiment(args, doc: ConfigDoc) -> int:
    cfg = config_from_doc(doc, kind=args.command, workers=args.workers,
                          out_csv=args.out)
    report = run_experiment(cfg)
    if args.verbose:
        # one line per row, in row order: its index and headline value
        index, head = report.columns[0], KINDS[cfg.kind][1]
        for row in report.rows:
            print(f"{index}={row[index]} {head}={row[head]:.12g}",
                  file=sys.stderr)
    if cfg.out_csv:
        report.write(cfg.out_csv, cfg.out_manifest)
        if args.verbose:
            print(f"wrote {len(report.rows)} rows to {cfg.out_csv}",
                  file=sys.stderr)
    else:
        sys.stdout.write(report.csv_body())
    if args.verbose:
        print(json.dumps(report.summary, sort_keys=True, default=str),
              file=sys.stderr)
    return report.exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load_doc(args)
        if args.print_config:
            _write_text(emit_config(doc), args.out)
            return 0
        run = {"radial": _cmd_radial, "multicenter": _cmd_multicenter}
        return run.get(args.command, _cmd_experiment)(args, doc)
    except (ConfigError, ChargeModelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NoGapEigenvalueError, IllConditionedBasisError,
            UncertifiedEigenvalueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
