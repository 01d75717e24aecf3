"""Command-line front end.

Subcommands: pmf, moments, woe-curve, ratio-curve, sample, validate.
Outputs are CSV with floats at 17 significant digits and a fixed row
order, so repeated runs are byte-identical.  Option precedence is
command-line flag, then --config JSON file, then built-in default.
Exit codes: 0 success, 1 validation failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import chain

from .evidence import pair_ratio_curves, woe_curve, woe_margin_grid
from .mdm import MdmParams, mdm_log_pmf
from .model import (
    CountTable,
    LocusFrequencies,
    MdmixError,
    ParameterError,
    TableError,
    _read_csv,
    read_frequency_csv,
    theta_to_alpha,
)
from .moments import covariance_matrix, mean_matrix
from .oracle import MdmSampler
from .validation import run_all_suites

# name -> (kind, many, default, help).  The flag is --name with '-' for '_';
# a --config file sets it under name.  _merge coerces a value from either by
# _typed to kind (a non-empty tuple of kind when many), a theta_grid string
# by parse_theta_grid.
OPTIONS = {
    "freqs": (str, False, None,
              "allele-frequency CSV (locus,allele,frequency)"),
    "table": (str, False, None, "count-table CSV (profile,allele_1,...)"),
    "locus": (str, False, None, "locus name from the frequency file"),
    "out": (str, False, None, "output path, '-' for stdout (default)"),
    "theta": (float, False, None, "coancestry coefficient in [0, 1)"),
    # 0, 0.01, ..., 0.5 as k / 100: parse_theta_grid's start + k * step
    # differs from it in the last bit at 3 of the 51 points
    "theta_grid": (float, True, tuple(k / 100.0 for k in range(51)),
                   "start:stop:step or comma list (default 0:0.5:0.01)"),
    "rows": (int, True, None, "comma-separated per-profile totals, e.g. 2,2"),
    "seed": (int, False, 0, "RNG seed"),
    "q_values": (float, True, (0.025, 0.05, 0.1, 0.2, 0.4),
                 "comma-separated step probabilities Q"),
    "contributors": (int, False, 2, "number of profiles"),
    "tail_mass": (float, False, 1.0,
                  "pooled-mass override for interior steps"),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _convert(value, kind):
    """kind(value), refusing what kind() would silently truncate or
    reinterpret: a bool as a number, a float as an int, and anything but a
    str as a str."""
    if (isinstance(value, bool) or (kind is int and isinstance(value, float))
            or (kind is str and not isinstance(value, str))):
        raise TypeError(value)
    return kind(value)


def _typed(name: str, value, kind, many: bool = False):
    """Coerce an option value to kind, or to a tuple of kind when many
    (from a list or a comma-separated string); a value that does not
    convert is a ParameterError naming the option."""
    try:
        if not many:
            return _convert(value, kind)
        parts = value.split(",") if isinstance(value, str) else value
        return tuple(_convert(v, kind) for v in parts)
    except (TypeError, ValueError, OverflowError):
        shape = "a list of " if many else ""
        raise ParameterError(f"{name}: expected {shape}{kind.__name__}, "
                             f"got {value!r}") from None


# most points a range-form theta grid may have: step 1e-4 over [0, 1)
MAX_THETA_GRID_POINTS = 10_001

# most contributors woe-curve takes: 231 states, 58,905 rows by default
MAX_WOE_CONTRIBUTORS = 10

# most table cells (profiles x categories) moments takes: the covariance
# matrix has cells^2 entries, 32 MiB of doubles at the cap
MAX_MOMENT_CELLS = 2_048

# most draws (the row total) and most table cells sample takes
MAX_SAMPLE_SIZE = 10 ** 6


def _checked_grid(name: str, grid: tuple[float, ...]) -> tuple[float, ...]:
    for t in grid:
        if not 0.0 <= t < 1.0:
            raise ParameterError(f"{name} value {t} outside [0, 1)")
    return grid


def parse_theta_grid(spec: str) -> tuple[float, ...]:
    """Either start:stop:step (stop inclusive) or a comma list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(f"theta_grid {spec!r} is not start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ParameterError(f"theta_grid {spec!r} has non-numeric "
                                 "fields") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ParameterError(f"theta_grid {spec!r} has non-finite fields")
        if step <= 0 or stop < start:
            raise ParameterError(f"theta_grid {spec!r} is not increasing")
        # compare before rounding: a tiny step overflows the point count
        span = (stop - start) / step
        if not span < MAX_THETA_GRID_POINTS - 0.5:
            raise ParameterError(f"theta_grid {spec!r} has more than "
                                 f"{MAX_THETA_GRID_POINTS} points")
        n = int(round(span))
        grid = tuple(start + k * step for k in range(n + 1)
                     if start + k * step <= stop + 1e-12)
    else:
        grid = _typed("theta_grid", spec, float, many=True)
    return _checked_grid("theta_grid", grid)


def read_table_csv(path) -> tuple[tuple[str, ...], CountTable]:
    """Parse a profile,allele_1..allele_A integer table."""
    def header_width(header):
        header = [h.strip() for h in header]
        if not header or header[0].lower() != "profile" or len(header) < 2:
            raise TableError(
                f"{path}: line 1: expected header profile,allele_1,...,"
                f"got {','.join(header)}"
            )
        for k, name in enumerate(header[1:], start=1):
            if name.lower() != f"allele_{k}":
                raise TableError(
                    f"{path}: line 1: column {k + 1} should be allele_{k}, "
                    f"got {name!r}"
                )
        return len(header)

    ids = []
    rows = []
    for lineno, row in _read_csv(path, TableError, header_width):
        ids.append(row[0].strip())
        try:
            rows.append(tuple(int(cell) for cell in row[1:]))
        except ValueError:
            raise TableError(
                f"{path}: line {lineno}: counts must be integers"
            ) from None
    if not rows:
        raise TableError(f"{path}: no count rows found")
    return tuple(ids), CountTable(tuple(rows))


def _write_csv(out, header, rows) -> None:
    """rows hold str cells already; out is a path or '-' for stdout."""
    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if out in (None, "-"):
        emit(sys.stdout)
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            emit(fh)


def _select_locus(freq_db: dict[str, LocusFrequencies],
                  locus: str | None) -> LocusFrequencies:
    if locus is not None:
        if locus not in freq_db:
            raise ParameterError(
                f"locus {locus!r} not in frequency file "
                f"(available: {', '.join(freq_db)})"
            )
        return freq_db[locus]
    if len(freq_db) == 1:
        return next(iter(freq_db.values()))
    raise ParameterError(
        f"frequency file has {len(freq_db)} loci; pick one with --locus"
    )


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Set each option in OPTIONS on args from its flag, else --config, else
    its default; then check the values and the command's required options."""
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ParameterError(f"{args.config}: {err}") from None
        if not isinstance(file_cfg, dict):
            raise ParameterError(f"{args.config}: config must be a JSON object")
        for key in file_cfg:
            if key not in OPTIONS:
                raise ParameterError(f"{key}: not an option")
    for name, (kind, many, default, _) in OPTIONS.items():
        flag = getattr(args, name, None)
        value = file_cfg.get(name) if flag is None else flag
        if value is None:
            value = default
        elif name == "theta_grid" and isinstance(value, str):
            value = parse_theta_grid(value)
        else:
            value = _typed(name, value, kind, many)
            if many and not value:
                raise ParameterError(f"{name}: expected a non-empty list")
        setattr(args, name, value)
    _checked_grid("theta_grid", args.theta_grid)
    if args.seed < 0:
        raise ParameterError(
            f"seed: expected a non-negative int, got {args.seed}")
    if args.rows is not None and min(args.rows) < 0:
        raise ParameterError(
            f"rows: expected a list of non-negative int, got {args.rows}")
    if args.contributors < 1:
        raise ParameterError(
            f"contributors: expected an int >= 1, got {args.contributors}")
    if args.contributors > MAX_WOE_CONTRIBUTORS:
        raise ParameterError(f"contributors: at most {MAX_WOE_CONTRIBUTORS}, "
                             f"got {args.contributors}")
    for name in COMMANDS[args.command][3]:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{args.command} requires {flag}")
    return args


def cmd_pmf(cfg: argparse.Namespace) -> int:
    freq_db = read_frequency_csv(cfg.freqs)
    ids, table = read_table_csv(cfg.table)
    if cfg.locus is not None:
        loci = [_select_locus(freq_db, cfg.locus)]
    else:
        loci = list(freq_db.values())
    rows = []
    for entry in loci:
        if table.n_categories != entry.freqs.n_categories:
            raise TableError(
                f"table has {table.n_categories} allele columns, locus "
                f"{entry.locus!r} has {entry.freqs.n_categories} categories "
                "(a rest class counts as one)"
            )
        params = MdmParams(row_sums=table.row_sums,
                           model=theta_to_alpha(entry.freqs, cfg.theta))
        lp = mdm_log_pmf(table, params)
        rows.append((entry.locus, _fmt(lp), _fmt(math.exp(lp))))
    _write_csv(cfg.out, ("table_id", "log_pmf", "pmf"), rows)
    return 0


def cmd_moments(cfg: argparse.Namespace) -> int:
    freq_db = read_frequency_csv(cfg.freqs)
    entry = _select_locus(freq_db, cfg.locus)
    n_cells = len(cfg.rows) * entry.freqs.n_categories
    if n_cells > MAX_MOMENT_CELLS:
        raise ParameterError(f"rows: {len(cfg.rows)} profiles x "
                             f"{entry.freqs.n_categories} categories is "
                             f"{n_cells} cells, at most {MAX_MOMENT_CELLS}")
    params = MdmParams(row_sums=cfg.rows,
                       model=theta_to_alpha(entry.freqs, cfg.theta))
    means = mean_matrix(params).ravel()
    cov = covariance_matrix(params)
    # cell (i, a) of the table is entry i * A + a of means and cov
    cells = [(str(i + 1), str(a + 1)) for i in range(params.n_profiles)
             for a in range(params.n_categories)]
    # cells^2 covariance rows: streamed to the writer, never held
    out_rows = chain(
        (("mean", *cell, "", "", _fmt(m)) for cell, m in zip(cells, means)),
        (("cov", *cell, *other, _fmt(cov[x, y]))
         for x, cell in enumerate(cells) for y, other in enumerate(cells)))
    _write_csv(cfg.out,
               ("kind", "profile", "allele", "profile2", "allele2", "value"),
               out_rows)
    return 0


def cmd_woe_curve(cfg: argparse.Namespace) -> int:
    grid = woe_margin_grid(cfg.contributors)
    rows = []
    for q in cfg.q_values:
        states = [state for state, _ in grid]
        table = woe_curve(states, q, cfg.theta_grid, tail_mass=cfg.tail_mass)
        for r, state in enumerate(states):
            for c, theta in enumerate(cfg.theta_grid):
                rows.append((str(state.n_col), str(state.s_prev), _fmt(q),
                             _fmt(theta), _fmt(table[r, c])))
    _write_csv(cfg.out, ("n_col", "s_prev", "Q", "theta", "woe"), rows)
    return 0


def cmd_ratio_curve(cfg: argparse.Namespace) -> int:
    freq_db = read_frequency_csv(cfg.freqs)
    entry = _select_locus(freq_db, cfg.locus)
    curves = pair_ratio_curves(entry.freqs, cfg.theta_grid)
    rows = []
    for cls in sorted(curves, key=lambda c: c.multiplicities):
        for theta, value in zip(cfg.theta_grid, curves[cls]):
            rows.append((cls.label, _fmt(theta), _fmt(value)))
    _write_csv(cfg.out, ("class", "theta", "ratio"), rows)
    return 0


def cmd_sample(cfg: argparse.Namespace) -> int:
    freq_db = read_frequency_csv(cfg.freqs)
    entry = _select_locus(freq_db, cfg.locus)
    n_cells = len(cfg.rows) * entry.freqs.n_categories
    if sum(cfg.rows) > MAX_SAMPLE_SIZE or n_cells > MAX_SAMPLE_SIZE:
        raise ParameterError(f"rows: {sum(cfg.rows)} draws into {n_cells} "
                             f"cells, at most {MAX_SAMPLE_SIZE} of each")
    params = MdmParams(row_sums=cfg.rows,
                       model=theta_to_alpha(entry.freqs, cfg.theta))
    sampler = MdmSampler(params, cfg.seed)
    table = sampler.draw()
    header = ("profile",) + tuple(f"allele_{a + 1}"
                                  for a in range(table.n_categories))
    rows = [(str(i + 1),) + tuple(str(x) for x in row)
            for i, row in enumerate(table.counts)]
    _write_csv(cfg.out, header, rows)
    meta = {
        "algorithm": sampler.algorithm,
        "seed": cfg.seed,
        "locus": entry.locus,
        "theta": cfg.theta,
        "row_sums": list(cfg.rows),
    }
    meta_fh = sys.stderr if cfg.out in (None, "-") else sys.stdout
    json.dump(meta, meta_fh, sort_keys=True)
    meta_fh.write("\n")
    return 0


def cmd_validate(cfg: argparse.Namespace) -> int:
    results = run_all_suites()
    report = {
        "passed": all(r.passed for r in results),
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "n_checks": r.n_checks,
                "max_error": r.max_error,
                "tolerance": r.tolerance,
                **({"note": r.note} if r.note else {}),
            }
            for r in results
        ],
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.out in (None, "-"):
        print(text)
    else:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0 if report["passed"] else 1


# subcommand -> (handler, help, options in --help order, required options)
COMMANDS = {
    "pmf": (cmd_pmf, "evaluate the joint log pmf of a count table",
            ("freqs", "table", "locus", "theta", "out"),
            ("freqs", "table", "theta")),
    "moments": (cmd_moments, "mean and covariance of the counts",
                ("freqs", "locus", "theta", "rows", "out"),
                ("freqs", "theta", "rows")),
    "woe-curve": (cmd_woe_curve, "per-step evidence ratios over a theta grid",
                  ("theta_grid", "q_values", "contributors", "tail_mass",
                   "out"), ()),
    "ratio-curve": (cmd_ratio_curve, "pair ratio curves per multiplicity class",
                    ("freqs", "locus", "theta_grid", "out"), ("freqs",)),
    "sample": (cmd_sample, "draw one count table",
               ("freqs", "locus", "theta", "rows", "seed", "out"),
               ("freqs", "theta", "rows")),
    "validate": (cmd_validate, "run the oracle suites and report", ("out",),
                 ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdmix",
        description="Dirichlet-multinomial count tables and theta-corrected "
                    "DNA-mixture evidence ratios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
        for name in names:
            _, many, default, text = OPTIONS[name]
            if default is not None and not many:
                text += f" (default {default})"
            p.add_argument("--" + name.replace("_", "-"), help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_merge(args))
    except (MdmixError, OSError) as err:
        print(f"mdmix {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
