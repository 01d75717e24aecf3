# SPDX-License-Identifier: Apache-2.0
"""Outputs pinned to the bit.

Each CLI invocation below runs in-process through `cli.main` on fixture
files this test writes, and its stdout (plus stderr for `sample`) is
reduced to a SHA-256.  Five more digests cover the `.hex()` of the direct
and chain log pmf on every small table of a fixed grid, of every factorial
moment of total at most 3, of `pair_ratio` on every genotype pair over 4
alleles and of `woe_step` on the three-contributor margin grid.  Three
cover casework-shaped traffic: the direct log pmf of genotype tables with
2 to 4 rows over 6, 20 and 41 alleles, with and without a rest class,
`pair_ratio` on the pairs of their rows, and the bytes (or the error) of
`woe_curve` over the margin grids of 1 to 4 contributors on a theta grid
that reaches 0, 1e-320 and 1 - 1e-16.
`tests/golden/digests.json` holds the expected digests and the Python,
numpy and platform they were made on.  Each invocation also runs with its
options moved into a --config file and must give the same bytes.

A change that moves any of these values by one ulp fails here.  The
failure message prints the new digests: a change that means to move a
value says in its notes which values moved and by how much, and only then
replaces the file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pathlib
import sys

import numpy as np

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   GenotypePair, MdmParams, ParameterError,
                   factorial_moment, mdm_chain_log_pmf, mdm_log_pmf,
                   pair_ratio, theta_to_alpha, woe_curve, woe_margin_grid,
                   woe_step)
from mdmix.cli import main
from mdmix.evidence import enumerate_genotype_pairs, genotype_from_alleles
from mdmix.oracle import enumerate_tables

GOLDEN = pathlib.Path(__file__).parent / "golden" / "digests.json"

# A6 and A20 leave a rest class (their frequencies sum to 0.9 and 0.95)
FREQ_CSV = "locus,allele,frequency\n" + "".join(
    f"A6,{k + 1},{q}\n" for k, q in enumerate(
        (0.025, 0.05, 0.1, 0.125, 0.2, 0.4))) + "".join(
    f"A20,{k + 1},{q}\n" for k, q in enumerate(
        (0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05, 0.055,
         0.06, 0.065, 0.07, 0.075, 0.06, 0.055, 0.05, 0.045, 0.04, 0.055)))

TABLE_CSV = """profile,allele_1,allele_2,allele_3,allele_4,allele_5,allele_6,allele_7
suspect,2,0,0,0,0,0,0
victim,1,1,0,0,0,0,0
unknown,0,0,1,0,0,0,1
"""

CLI_CASES = {
    "woe-curve": ["woe-curve"],
    "woe-curve-c3-t0.4": ["woe-curve", "--contributors", "3",
                          "--tail-mass", "0.4"],
    "ratio-curve-A6": ["ratio-curve", "--freqs", "{freqs}", "--locus", "A6"],
    "ratio-curve-A20": ["ratio-curve", "--freqs", "{freqs}", "--locus", "A20"],
    "pmf-theta0": ["pmf", "--freqs", "{freqs}", "--table", "{table}",
                   "--locus", "A6", "--theta", "0"],
    "pmf-theta0.01": ["pmf", "--freqs", "{freqs}", "--table", "{table}",
                      "--locus", "A6", "--theta", "0.01"],
    "pmf-theta0.3": ["pmf", "--freqs", "{freqs}", "--table", "{table}",
                     "--locus", "A6", "--theta", "0.3"],
    "moments": ["moments", "--freqs", "{freqs}", "--locus", "A6",
                "--theta", "0.03", "--rows", "2,2"],
    "sample-seed5": ["sample", "--freqs", "{freqs}", "--locus", "A6",
                     "--theta", "0.1", "--rows", "2,2,2", "--seed", "5"],
    "validate": ["validate"],
}

PMF_FREQS = AlleleFrequencies((0.2, 0.3, 0.5))
PMF_THETAS = (0.0, 1e-6, 0.01, 0.3)

# the two params of the `validate` moment suite
MOMENT_PARAMS = (
    MdmParams(row_sums=(2, 2), model=DispersionModel.from_alpha((2.0, 2.0))),
    MdmParams(row_sums=(2, 3),
              model=theta_to_alpha(AlleleFrequencies((0.1, 0.3, 0.6)), 0.05)),
)


PAIR_FREQS = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
PAIR_THETAS = (1e-6, 0.01, 0.3)
WOE_QS = (0.025, 0.2, 0.4)
WOE_THETAS = (1e-9, 0.01, 0.3)
WOE_TAIL_MASSES = (1.0, 0.4)

# casework-shaped traffic: the named-allele counts, the thetas casework
# runs plus one near the multinomial limit, and 12 tables per row count
CASE_WIDTHS = (6, 20, 41)
CASE_THETAS = (0.0, 0.01, 0.03, 1e-6)
CASE_TABLES = 12
CURVE_QS = (0.025, 0.4, 1.0 - 1e-16)
CURVE_TAIL_MASSES = (1.0, 0.4, 1e-300)
CURVE_GRID = (0.0, 1e-320, 1e-15, 1e-6, 0.01, 0.3, 0.9, 0.9999999999999999)


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _cli_cases(tmp_path) -> dict[str, list[str]]:
    """CLI_CASES with the fixture files written and their paths filled in."""
    paths = {"freqs": tmp_path / "freqs.csv", "table": tmp_path / "table.csv"}
    paths["freqs"].write_text(FREQ_CSV)
    paths["table"].write_text(TABLE_CSV)
    return {name: [arg.format(**paths) for arg in argv]
            for name, argv in CLI_CASES.items()}


def _run(argv, capsys) -> tuple[int, str]:
    """Exit code and stdout (plus stderr for `sample`) of one run."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out + (captured.err if argv[0] == "sample" else "")


def _cli_digests(tmp_path, capsys) -> dict[str, str]:
    out = {}
    for name, argv in _cli_cases(tmp_path).items():
        code, text = _run(argv, capsys)
        out[name] = f"{code}:" + hashlib.sha256(text.encode()).hexdigest()
    return out


def _pmf_hexes(log_pmf) -> list[str]:
    out = []
    for rows in ((2, 2), (1, 2, 3)):
        for theta in PMF_THETAS:
            params = MdmParams(rows, theta_to_alpha(PMF_FREQS, theta))
            out.extend(log_pmf(t, params).hex()
                       for t in enumerate_tables(rows, 3))
    return out


def _orders(params: MdmParams, max_total: int):
    """Every factorial order over params' cells of total at most max_total."""
    cells = params.n_profiles * params.n_categories
    for flat in itertools.product(range(max_total + 1), repeat=cells):
        if sum(flat) <= max_total:
            yield CountTable(tuple(
                flat[i:i + params.n_categories]
                for i in range(0, cells, params.n_categories)))


def _case_freqs():
    """Uneven frequencies over each width, closing the simplex and (scaled
    by 0.9) leaving a rest class of 0.1."""
    for width in CASE_WIDTHS:
        weights = [1.0 + (7 * k) % 5 for k in range(width)]
        total = math.fsum(weights)
        full = tuple(w / total for w in weights)
        yield AlleleFrequencies(full)
        yield AlleleFrequencies(tuple(0.9 * q for q in full))


def _case_tables(width: int):
    """CASE_TABLES genotype tables of 2, 3 and 4 rows over width categories.
    A fixed linear congruential stream picks each allele, half the time
    among the first four so that rows share alleles and homozygotes occur."""
    x = 1
    for n_rows in (2, 3, 4):
        for _ in range(CASE_TABLES):
            rows = []
            for _ in range(n_rows):
                alleles = []
                for _ in range(2):
                    x = (1103515245 * x + 12345) % 2**31
                    span = width if (x >> 10) & 1 else min(width, 4)
                    alleles.append((x >> 16) % span)
                rows.append(genotype_from_alleles(alleles, width))
            yield rows


def _case_hexes() -> tuple[list[str], list[str]]:
    """.hex() of mdm_log_pmf on every casework table and of pair_ratio on
    every pair of its rows, at every CASE_THETAS value."""
    pmfs, ratios = [], []
    for freqs in _case_freqs():
        for rows in _case_tables(freqs.n_categories):
            table = CountTable(tuple(r.counts for r in rows))
            pairs = [GenotypePair(a, b)
                     for a, b in itertools.combinations(rows, 2)]
            for theta in CASE_THETAS:
                params = MdmParams(table.row_sums,
                                   theta_to_alpha(freqs, theta))
                pmfs.append(mdm_log_pmf(table, params).hex())
                ratios.extend(pair_ratio(p, freqs, theta).hex()
                              for p in pairs)
    return pmfs, ratios


def _curve_outputs() -> list[str]:
    """woe_curve's bytes, or its error, for every CURVE_* combination."""
    out = []
    for contributors in range(1, 5):
        states = [state for state, _ in woe_margin_grid(contributors)]
        for q in CURVE_QS:
            for mass in CURVE_TAIL_MASSES:
                try:
                    curve = woe_curve(states, q, CURVE_GRID, tail_mass=mass)
                except ParameterError as err:
                    out.append(f"ParameterError: {err}")
                else:
                    out.append(curve.tobytes().hex())
    return out


def _value_digests() -> dict[str, str]:
    moments = [factorial_moment(order, params).hex()
               for params in MOMENT_PARAMS for order in _orders(params, 3)]
    ratios = [pair_ratio(pair, PAIR_FREQS, theta).hex()
              for pair in enumerate_genotype_pairs(4) for theta in PAIR_THETAS]
    steps = [woe_step(state, q, theta, tail_mass=mass).hex()
             for state, _ in woe_margin_grid(3) for q in WOE_QS
             for theta in WOE_THETAS for mass in WOE_TAIL_MASSES]
    case_pmfs, case_ratios = _case_hexes()
    return {
        "mdm_log_pmf": _sha(_pmf_hexes(mdm_log_pmf)),
        "mdm_chain_log_pmf": _sha(_pmf_hexes(mdm_chain_log_pmf)),
        "factorial_moment": _sha(moments),
        "pair_ratio": _sha(ratios),
        "woe_step": _sha(steps),
        "casework_mdm_log_pmf": _sha(case_pmfs),
        "casework_pair_ratio": _sha(case_ratios),
        "woe_curve": _sha(_curve_outputs()),
    }


def _as_json(text: str):
    """A flag's text as the JSON value a config file would hold: a number,
    a list of numbers, or else the string itself."""
    try:
        value = json.loads(f"[{text}]")
    except ValueError:
        return text
    return value[0] if len(value) == 1 else value


def test_config_file_gives_the_same_bytes_as_flags(tmp_path, capsys):
    for name, argv in _cli_cases(tmp_path).items():
        command, flags = argv[0], argv[1:]
        config = {flag[2:].replace("-", "_"): _as_json(text)
                  for flag, text in zip(flags[::2], flags[1::2])}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert (_run([command, "--config", str(path)], capsys)
                == _run(argv, capsys)), name


def test_outputs_match_the_golden_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = {"cli": _cli_digests(tmp_path, capsys), "values": _value_digests()}
    expected = {key: golden[key] for key in got}
    here = {"python": sys.version.split()[0], "numpy": np.__version__,
            "platform": sys.platform}
    assert got == expected, (
        f"golden digests differ (recorded on {golden['recorded_on']}, "
        f"running on {here}); new digests:\n"
        + json.dumps(got, indent=2, sort_keys=True))
