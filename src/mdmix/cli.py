"""Command-line front end.

Subcommands: pmf, moments, woe-curve, ratio-curve, sample, validate.
Outputs are CSV with floats at 17 significant digits and a fixed row
order, so repeated runs are byte-identical.  Option precedence is
command-line flag, then --config JSON file, then built-in default.
Exit codes: 0 success, 1 validation failure, 2 usage or input error.
Each command imports the numpy-backed modules it calls inside its own
function, so `pmf` starts without numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain

from .mdm import MdmParams, mdm_log_pmf
from .model import (
    CountTable,
    LocusFrequencies,
    MdmixError,
    ParameterError,
    TableError,
    _MAX_TOTAL,
    _as_count,
    _as_counts,
    _as_real,
    _read_csv,
    read_frequency_csv,
    theta_to_alpha,
)

# name -> (kind, many, default, help).  The flag is --name with '-' for '_';
# a --config file sets it under name.  A default is the text a user would
# type for the flag, and --help prints it.  _merge coerces a value from any
# of the three by _typed to kind (a non-empty tuple of kind when many), a
# theta_grid by parse_theta_grid, and then takes each int through
# model._as_count.
OPTIONS = {
    "freqs": (str, False, None,
              "allele-frequency CSV (locus,allele,frequency)"),
    "table": (str, False, None, "count-table CSV (profile,allele_1,...)"),
    "locus": (str, False, None, "locus name from the frequency file"),
    "out": (str, False, None, "output path, '-' for stdout (default)"),
    "theta": (float, False, None, "coancestry coefficient in [0, 1)"),
    "theta_grid": (float, True, "0:0.5:0.01",
                   "start:stop:step or comma list"),
    "rows": (int, True, None, "comma-separated per-profile totals, e.g. 2,2"),
    "seed": (int, False, "0", "RNG seed"),
    "q_values": (float, True, "0.025,0.05,0.1,0.2,0.4",
                 "comma-separated step probabilities Q"),
    "contributors": (int, False, "2", "number of profiles"),
    "tail_mass": (float, False, "1.0",
                  "pooled-mass override for interior steps"),
}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _convert(value, kind):
    """kind(value) of text with no NUL, which no path or CSV field holds;
    another value goes through _as_real for a float, is refused for a str
    and kept for an int, which _merge checks."""
    if isinstance(value, str) and "\0" not in value:
        return kind(value)
    if kind is str:
        raise TypeError(value)
    return _as_real(value, "value") if kind is float else value


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


# most points a theta grid, range or list, may have: step 1e-4 over [0, 1)
MAX_THETA_GRID_POINTS = 10_001

# most contributors woe-curve takes: 231 states, 58,905 rows by default
MAX_WOE_CONTRIBUTORS = 10

# most table cells (profiles x categories) moments takes: the covariance
# matrix has cells^2 entries, 32 MiB of doubles at the cap
MAX_MOMENT_CELLS = 2_048

# most draws (the row total) and most table cells sample takes
MAX_SAMPLE_SIZE = 10 ** 6


def parse_theta_grid(spec: str | list) -> tuple[float, ...]:
    """Either start:stop:step (stop inclusive) or a list, as comma-separated
    text or, from a config file, a JSON list.  Point k of a range is
    start + k * step in exact arithmetic on the shortest decimal text of each
    field's double, rounded once: 0:0.5:0.01 gives k / 100.  Every grid then
    meets one check: at most MAX_THETA_GRID_POINTS points, each in [0, 1)."""
    if isinstance(spec, str) and ":" in spec:
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
        # imported here, so the commands that take no grid start without it
        from fractions import Fraction
        start, stop, step = (Fraction(repr(x)) for x in (start, stop, step))
        n = (stop - start) // step
        # refused before its points are built
        if n >= MAX_THETA_GRID_POINTS:
            raise ParameterError(f"theta_grid {spec!r} has more than "
                                 f"{MAX_THETA_GRID_POINTS} points")
        grid = tuple(float(start + k * step) for k in range(n + 1))
    else:
        grid = _typed("theta_grid", spec, float, many=True)
    if len(grid) > MAX_THETA_GRID_POINTS:
        raise ParameterError("theta_grid has more than "
                             f"{MAX_THETA_GRID_POINTS} points")
    for t in grid:
        if not 0.0 <= t < 1.0:
            raise ParameterError(f"theta_grid value {t} outside [0, 1)")
    return grid


def _cell_count(cell: str, where: str) -> int:
    """The count in a table cell: ASCII digits, with whitespace around
    them; a leading minus sign is read only to refuse the count."""
    text = cell.strip()
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise TableError(f"{where}: counts must be integers")
    digits = digits.lstrip("0") or "0"
    if digits != "0" and text[0] == "-":
        raise TableError(f"{where}: count -{digits} is negative")
    # int() reads at most 4,300 digits; a count of more digits than
    # _MAX_TOTAL has is past the cap whatever it is, so it stands as
    # _MAX_TOTAL + 1 for read_table_csv's one check of the total
    if len(digits) > len(str(_MAX_TOTAL)):
        return _MAX_TOTAL + 1
    return int(digits)


def read_table_csv(path) -> tuple[tuple[str, ...], CountTable]:
    """Parse a profile,allele_1..allele_A table of integers >= 0 whose
    total is at most 10**300."""
    def header(width):
        return ("profile",) + tuple(f"allele_{k}"
                                    for k in range(1, max(width, 2)))

    ids = []
    rows = []
    total = 0
    for lineno, row in _read_csv(path, TableError, header):
        where = f"{path}: line {lineno}"
        ids.append(row[0].strip())
        rows.append(tuple(_cell_count(cell, where) for cell in row[1:]))
        total += sum(rows[-1])
        if total > _MAX_TOTAL:
            raise TableError(f"{where}: the table's total is above 10**300")
    return tuple(ids), CountTable(tuple(rows))


@contextmanager
def _opened(out):
    """The stream an output goes to: stdout for None or '-', else the file
    at path out."""
    if out in (None, "-"):
        yield sys.stdout
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh


def _write_csv(out, header, rows) -> None:
    """rows hold str cells already."""
    with _opened(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _select_locus(cfg: argparse.Namespace) -> LocusFrequencies:
    """Locus cfg.locus of the frequency file cfg.freqs, or the file's one
    locus when cfg.locus is None."""
    freq_db = read_frequency_csv(cfg.freqs)
    if cfg.locus is not None:
        if cfg.locus not in freq_db:
            raise ParameterError(
                f"locus {cfg.locus!r} not in frequency file "
                f"(available: {', '.join(freq_db)})"
            )
        return freq_db[cfg.locus]
    if len(freq_db) == 1:
        return next(iter(freq_db.values()))
    raise ParameterError(
        f"{cfg.freqs}: {len(freq_db)} loci; pick one with --locus")


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Set each option in OPTIONS on args from its flag, else --config, else
    its default if the command takes it; then check the values and the
    command's required options."""
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
        # a default only where the command reads it: a range grid's parse
        # imports fractions, which the other commands start without
        if value is None and name in COMMANDS[args.command][2]:
            value = default
        if value is not None:
            value = (parse_theta_grid(value) if name == "theta_grid"
                     else _typed(name, value, kind, many))
            if many and not value:
                raise ParameterError(f"{name}: expected a non-empty list")
        setattr(args, name, value)
    for q in args.q_values or ():
        if not 0.0 < q < 1.0:
            raise ParameterError(f"q_values value {q} outside (0, 1)")
    if args.seed is not None:
        args.seed = _as_count(args.seed, "seed", error=ParameterError)
    if args.rows is not None:
        args.rows = _as_counts(args.rows, "rows", error=ParameterError)
    if args.contributors is not None:
        args.contributors = _as_count(args.contributors, "contributors", 1,
                                      ParameterError)
        if args.contributors > MAX_WOE_CONTRIBUTORS:
            raise ParameterError("contributors: at most "
                                 f"{MAX_WOE_CONTRIBUTORS}, "
                                 f"got {args.contributors}")
    for name in COMMANDS[args.command][3]:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{args.command} requires {flag}")
    return args


def cmd_pmf(cfg: argparse.Namespace) -> int:
    loci = (list(read_frequency_csv(cfg.freqs).values())
            if cfg.locus is None else [_select_locus(cfg)])
    ids, table = read_table_csv(cfg.table)
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
    from .moments import covariance_matrix, mean_matrix

    entry = _select_locus(cfg)
    n_cells = len(cfg.rows) * entry.freqs.n_categories
    if n_cells > MAX_MOMENT_CELLS:
        raise ParameterError(f"rows: {len(cfg.rows)} profiles x "
                             f"{entry.freqs.n_categories} categories is "
                             f"{n_cells} cells, at most {MAX_MOMENT_CELLS}")
    if max(cfg.rows) > 2 ** 511:  # n_i. n_j., so each covariance, is finite
        raise ParameterError(f"rows: at most 2**511, got {max(cfg.rows)}")
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
    from .evidence import woe_curve, woe_margin_grid

    states = [state for state, _ in woe_margin_grid(cfg.contributors)]
    # every Q is checked first, on one state, so an error writes nothing;
    # then one Q's table at a time, up to 231 states x 10,001 points at the
    # caps, is computed and its rows are streamed to the writer
    for q in cfg.q_values:
        woe_curve(states[:1], q, cfg.theta_grid, tail_mass=cfg.tail_mass)

    # each text that repeats is formed once: a theta's for the grid, Q's
    # and a state's for its rows; the values are read a row at a time
    thetas = list(map(_fmt, cfg.theta_grid))

    def rows():
        for q in cfg.q_values:
            table = woe_curve(states, q, cfg.theta_grid,
                              tail_mass=cfg.tail_mass)
            q_text = _fmt(q)
            for state, values in zip(states, table):
                head = (str(state.n_col), str(state.s_prev), q_text)
                for theta, value in zip(thetas, values.tolist()):
                    yield (*head, theta, _fmt(value))

    _write_csv(cfg.out, ("n_col", "s_prev", "Q", "theta", "woe"), rows())
    return 0


def cmd_ratio_curve(cfg: argparse.Namespace) -> int:
    from .evidence import pair_ratio_curves

    entry = _select_locus(cfg)
    curves = pair_ratio_curves(entry.freqs, cfg.theta_grid)
    rows = []
    for cls in sorted(curves, key=lambda c: c.multiplicities):
        for theta, value in zip(cfg.theta_grid, curves[cls]):
            rows.append((cls.label, _fmt(theta), _fmt(value)))
    _write_csv(cfg.out, ("class", "theta", "ratio"), rows)
    return 0


def cmd_sample(cfg: argparse.Namespace) -> int:
    from .oracle import MdmSampler

    entry = _select_locus(cfg)
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
    from .validation import run_all_suites

    results = run_all_suites()
    report = {
        "passed": all(r.passed for r in results),
        "suites": [{key: value for key, value in asdict(r).items()
                    if key != "note" or value} for r in results],
    }
    with _opened(cfg.out) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
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
            default, text = OPTIONS[name][2:]
            if default is not None:
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
