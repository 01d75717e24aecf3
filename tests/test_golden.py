# SPDX-License-Identifier: Apache-2.0
"""Outputs pinned to the bit.

Each CLI invocation below runs in-process through `cli.main` on fixture
files this test writes, and its stdout (plus stderr for `sample`) is
reduced to a SHA-256.  Five more digests cover the `.hex()` of the direct
and chain log pmf on every small table of a fixed grid, of every factorial
moment of total at most 3, of `pair_ratio` on every genotype pair over 4
alleles and of `woe_step` on the three-contributor margin grid.
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
import pathlib
import sys

import numpy as np

from mdmix import (AlleleFrequencies, DispersionModel, FactorialOrder,
                   MdmParams, factorial_moment, mdm_chain_log_pmf,
                   mdm_log_pmf, pair_ratio, theta_to_alpha, woe_margin_grid,
                   woe_step)
from mdmix.cli import main
from mdmix.evidence import enumerate_genotype_pairs
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
            yield FactorialOrder(tuple(
                flat[i:i + params.n_categories]
                for i in range(0, cells, params.n_categories)))


def _value_digests() -> dict[str, str]:
    moments = [factorial_moment(order, params).hex()
               for params in MOMENT_PARAMS for order in _orders(params, 3)]
    ratios = [pair_ratio(pair, PAIR_FREQS, theta).hex()
              for pair in enumerate_genotype_pairs(4) for theta in PAIR_THETAS]
    steps = [woe_step(state, q, theta, tail_mass=mass).hex()
             for state, _ in woe_margin_grid(3) for q in WOE_QS
             for theta in WOE_THETAS for mass in WOE_TAIL_MASSES]
    return {
        "mdm_log_pmf": _sha(_pmf_hexes(mdm_log_pmf)),
        "mdm_chain_log_pmf": _sha(_pmf_hexes(mdm_chain_log_pmf)),
        "factorial_moment": _sha(moments),
        "pair_ratio": _sha(ratios),
        "woe_step": _sha(steps),
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
