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
from dataclasses import dataclass

from .evidence import pair_ratio_curves, woe_curve, woe_margin_grid
from .mdm import MdmParams, mdm_log_pmf
from .model import (
    CountTable,
    LocusFrequencies,
    MdmixError,
    ParameterError,
    TableError,
    read_frequency_csv,
    theta_to_alpha,
)
from .moments import covariance_matrix, mean_matrix
from .oracle import MdmSampler
from .validation import run_all_suites

DEFAULT_Q_PANEL = (0.025, 0.05, 0.1, 0.2, 0.4)


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


def default_theta_grid() -> tuple[float, ...]:
    """theta = 0, 0.01, ..., 0.5."""
    return tuple(k / 100.0 for k in range(51))


# most points a range-form theta grid may have: step 1e-4 over [0, 1)
MAX_THETA_GRID_POINTS = 10_001

# most contributors woe-curve takes: 231 states, 58,905 rows by default
MAX_WOE_CONTRIBUTORS = 10


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
            raise ParameterError(f"theta grid {spec!r} is not start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ParameterError(f"theta grid {spec!r} has non-numeric "
                                 "fields") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ParameterError(f"theta grid {spec!r} has non-finite fields")
        if step <= 0 or stop < start:
            raise ParameterError(f"theta grid {spec!r} is not increasing")
        # compare before rounding: a tiny step overflows the point count
        span = (stop - start) / step
        if not span < MAX_THETA_GRID_POINTS - 0.5:
            raise ParameterError(f"theta grid {spec!r} has more than "
                                 f"{MAX_THETA_GRID_POINTS} points")
        n = int(round(span))
        grid = tuple(start + k * step for k in range(n + 1)
                     if start + k * step <= stop + 1e-12)
    else:
        grid = _typed("theta grid", spec, float, many=True)
    return _checked_grid("theta grid", grid)


def read_table_csv(path) -> tuple[tuple[str, ...], CountTable]:
    """Parse a profile,allele_1..allele_A integer table."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TableError(f"{path}: empty file")
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
        width = len(header) - 1
        ids = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width + 1:
                raise TableError(
                    f"{path}: line {lineno}: expected {width + 1} fields, "
                    f"got {len(row)}"
                )
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


@dataclass
class RunConfig:
    """Options after merging flags, config file, and defaults."""

    command: str
    freqs: str | None = None
    table: str | None = None
    locus: str | None = None
    theta: float | None = None
    theta_grid: tuple[float, ...] = ()
    rows: tuple[int, ...] = ()
    seed: int = 0
    out: str | None = None
    q_values: tuple[float, ...] = DEFAULT_Q_PANEL
    contributors: int = 2
    tail_mass: float = 1.0


def _merge(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as err:
                raise ParameterError(f"{args.config}: {err}") from None
        if not isinstance(file_cfg, dict):
            raise ParameterError(f"{args.config}: config must be a JSON object")

    def pick(name, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_cfg:
            return file_cfg[name]
        return default

    cfg = RunConfig(command=args.command)
    for name in ("freqs", "table", "locus", "out"):
        value = pick(name)
        if value is not None:
            setattr(cfg, name, _typed(name, value, str))
    theta = pick("theta")
    if theta is not None:
        cfg.theta = _typed("theta", theta, float)
    grid = pick("theta_grid")
    if grid is None:
        cfg.theta_grid = default_theta_grid()
    elif isinstance(grid, str):
        cfg.theta_grid = parse_theta_grid(grid)
    else:
        cfg.theta_grid = _checked_grid(
            "theta_grid", _typed("theta_grid", grid, float, many=True))
    rows = pick("rows")
    if rows is not None:
        cfg.rows = _typed("rows", rows, int, many=True)
    cfg.seed = _typed("seed", pick("seed", 0), int)
    if cfg.seed < 0:
        raise ParameterError(
            f"seed: expected a non-negative int, got {cfg.seed}")
    q_values = pick("q_values")
    if q_values is not None:
        cfg.q_values = _typed("q_values", q_values, float, many=True)
    cfg.contributors = _typed("contributors", pick("contributors", 2), int)
    if cfg.contributors > MAX_WOE_CONTRIBUTORS:
        raise ParameterError(f"contributors: at most {MAX_WOE_CONTRIBUTORS}, "
                             f"got {cfg.contributors}")
    cfg.tail_mass = _typed("tail_mass", pick("tail_mass", 1.0), float)
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ()):
            flag = "--" + name.replace("_", "-")
            raise ParameterError(f"{cfg.command} requires {flag}")


def cmd_pmf(cfg: RunConfig) -> int:
    _require(cfg, "freqs", "table", "theta")
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


def cmd_moments(cfg: RunConfig) -> int:
    _require(cfg, "freqs", "theta", "rows")
    freq_db = read_frequency_csv(cfg.freqs)
    entry = _select_locus(freq_db, cfg.locus)
    params = MdmParams(row_sums=cfg.rows,
                       model=theta_to_alpha(entry.freqs, cfg.theta))
    means = mean_matrix(params).ravel()
    cov = covariance_matrix(params)
    # cell (i, a) of the table is entry i * A + a of means and cov
    cells = [(str(i + 1), str(a + 1)) for i in range(params.n_profiles)
             for a in range(params.n_categories)]
    out_rows = [("mean", *cell, "", "", _fmt(m))
                for cell, m in zip(cells, means)]
    for x, cell in enumerate(cells):
        out_rows.extend(("cov", *cell, *other, _fmt(cov[x, y]))
                        for y, other in enumerate(cells))
    _write_csv(cfg.out,
               ("kind", "profile", "allele", "profile2", "allele2", "value"),
               out_rows)
    return 0


def cmd_woe_curve(cfg: RunConfig) -> int:
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


def cmd_ratio_curve(cfg: RunConfig) -> int:
    _require(cfg, "freqs")
    freq_db = read_frequency_csv(cfg.freqs)
    entry = _select_locus(freq_db, cfg.locus)
    curves = pair_ratio_curves(entry.freqs, cfg.theta_grid)
    rows = []
    for cls in sorted(curves, key=lambda c: c.multiplicities):
        for theta, value in zip(cfg.theta_grid, curves[cls]):
            rows.append((cls.label, _fmt(theta), _fmt(value)))
    _write_csv(cfg.out, ("class", "theta", "ratio"), rows)
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    _require(cfg, "freqs", "theta", "rows")
    freq_db = read_frequency_csv(cfg.freqs)
    entry = _select_locus(freq_db, cfg.locus)
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


def cmd_validate(cfg: RunConfig) -> int:
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


_HANDLERS = {
    "pmf": cmd_pmf,
    "moments": cmd_moments,
    "woe-curve": cmd_woe_curve,
    "ratio-curve": cmd_ratio_curve,
    "sample": cmd_sample,
    "validate": cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdmix",
        description="Dirichlet-multinomial count tables and theta-corrected "
                    "DNA-mixture evidence ratios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *options):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default option values")
        for opt, kwargs in options:
            p.add_argument(opt, **kwargs)
        return p

    freqs = ("--freqs", {"help": "allele-frequency CSV (locus,allele,frequency)"})
    locus = ("--locus", {"help": "locus name from the frequency file"})
    theta = ("--theta", {"type": float, "help": "coancestry coefficient in [0, 1)"})
    grid = ("--theta-grid", {"dest": "theta_grid",
                             "help": "start:stop:step or comma list "
                                     "(default 0:0.5:0.01)"})
    out = ("--out", {"help": "output path, '-' for stdout (default)"})
    rows = ("--rows", {"help": "comma-separated per-profile totals, e.g. 2,2"})
    add("pmf", "evaluate the joint log pmf of a count table",
        freqs, ("--table", {"help": "count-table CSV (profile,allele_1,...)"}),
        locus, theta, out)
    add("moments", "mean and covariance of the counts",
        freqs, locus, theta, rows, out)
    add("woe-curve", "per-step evidence ratios over a theta grid",
        grid,
        ("--q-values", {"dest": "q_values",
                        "help": "comma-separated step probabilities Q"}),
        ("--contributors", {"type": int, "help": "number of profiles (default 2)"}),
        ("--tail-mass", {"dest": "tail_mass", "type": float,
                         "help": "pooled-mass override for interior steps"}),
        out)
    add("ratio-curve", "pair ratio curves per multiplicity class",
        freqs, locus, grid, out)
    add("sample", "draw one count table",
        freqs, locus, theta, rows,
        ("--seed", {"type": int, "help": "RNG seed (default 0)"}), out)
    add("validate", "run the oracle suites and report", out)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        return _HANDLERS[args.command](cfg)
    except MdmixError as err:
        print(f"mdmix {args.command}: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"mdmix {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
