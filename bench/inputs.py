"""Seeded input generator for the benchmark workloads.

Everything a workload feeds to mdmix comes from here, as plain Python data
and file contents, built from one integer seed with the standard library's
`random.Random` (stable across platforms).  The seed fixes the values:
allele frequencies, rest-class masses, genotypes, sampler seeds and the
order of ops inside a round.  The *shapes* -- allele counts, contributor
counts, table sizes, thetas -- are fixed design constants, so every run
sees the same op mix whatever the seed, and per-run medians and tail
percentiles do not move because a seed happened to draw bigger tables.

This module does not import mdmix or numpy.
"""

from __future__ import annotations

import json
import math
import random

LOCI = (
    "CSF1PO", "FGA", "TH01", "TPOX", "VWA", "D3S1358", "D5S818", "D7S820",
    "D8S1179", "D13S317", "D16S539", "D18S51", "D21S11", "D1S1656",
    "D2S441", "D2S1338", "D10S1248", "D12S391", "D19S433", "D22S1045",
)

# Named-allele counts of the 20-locus panel: an even spread over 6..40.
PANEL_ALLELES = tuple(6 + (34 * k + 9) // 19 for k in range(len(LOCI)))
# Every third locus carries a rest class (one extra category).
PANEL_REST = tuple(k % 3 == 2 for k in range(len(LOCI)))

CASEWORK_THETAS = (0.0, 0.01, 0.03)
# Contributors per case in one round: thirds of 2, 3 and 4, so the
# reported percentiles (50, 75, 90, 99) fall inside a group, not on the
# boundary between two groups.
CASE_CONTRIBUTORS = (2, 2, 2, 3, 3, 3, 3, 4, 4, 4)

SIM_THETAS = (0.0, 0.01, 0.1, 0.5)
SIM_SETS = 25
SIM_DRAWS_PER_ROUND = 4

# Category counts of the curve loci in one round.  Repeated counts sit at
# the 50%, 75% and 90% positions so those percentiles land inside a group
# of equal cost, not between two costs.
CURVE_ALLELES = (6, 8, 10, 12, 14, 14, 14, 17, 20, 20, 20, 30)
# The CLI's default theta grid (0:0.5:0.01) and Q panel, fixed here so the
# workload does not change if those defaults do.
THETA_GRID = tuple(k / 100.0 for k in range(51))
Q_PANEL = (0.025, 0.05, 0.1, 0.2, 0.4)

# One CLI round: the six subcommands in turn, validate twice, so that it
# is over a quarter of the ops and the 75th and higher percentiles land on
# it rather than between it and the cheaper subcommands.
CLI_ROUND = ("pmf", "validate", "moments", "sample", "woe-curve",
             "ratio-curve", "validate")


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"mdmix-bench:{seed}:{part}")


def _dirichlet(rng: random.Random, size: int, conc: float) -> list[float]:
    draws = [rng.gammavariate(conc, 1.0) for _ in range(size)]
    total = sum(draws)
    return [d / total for d in draws]


def _str_frequencies(rng: random.Random, n_alleles: int) -> list[float]:
    """STR-like frequencies: a Dirichlet draw mixed half and half with the
    uniform, so no allele is below 1/(2A).  Rarer alleles would leave the
    simulation workload's cell-mean check with too few expected counts."""
    raw = _dirichlet(rng, n_alleles, 2.0)
    probs = [0.5 * p + 0.5 / n_alleles for p in raw]
    total = sum(probs)
    return [p / total for p in probs]


def _allele_names(rng: random.Random, n_alleles: int) -> list[str]:
    start = rng.randint(5, 12)
    names = []
    for k in range(n_alleles):
        repeat = start + k // 2
        names.append(str(repeat) if k % 2 == 0 else f"{repeat}.2")
    return names


def make_panel(seed: int, alleles=PANEL_ALLELES, rest=PANEL_REST,
               names=LOCI, part: str = "panel") -> list[dict]:
    """Loci as dicts: name, allele names, named frequencies, rest mass.

    Frequencies are rounded to 12 decimals so the CSV text is exact.  The
    rest mass is what the file implies, 1 minus the named frequencies.
    """
    rng = _rng(seed, part)
    panel = []
    for name, n_alleles, has_rest in zip(names, alleles, rest):
        rest_mass = rng.uniform(0.02, 0.1) if has_rest else 0.0
        probs = _str_frequencies(rng, n_alleles)
        scaled = [round(p * (1.0 - rest_mass), 12) for p in probs]
        if has_rest:
            rest_mass = round(1.0 - math.fsum(scaled), 12)
        else:
            # absorb the rounding residue into the largest allele so the
            # named alleles sum to 1 and no rest class appears
            top = max(range(n_alleles), key=scaled.__getitem__)
            scaled[top] = round(1.0 - (math.fsum(scaled) - scaled[top]), 12)
        panel.append({
            "locus": name,
            "alleles": _allele_names(rng, n_alleles),
            "freqs": scaled,
            "rest": rest_mass,
        })
    return panel


def n_categories(locus: dict) -> int:
    return len(locus["freqs"]) + (1 if locus["rest"] > 0.0 else 0)


def extended_freqs(locus: dict) -> list[float]:
    """Named frequencies plus the rest class, as the generator defines it."""
    freqs = list(locus["freqs"])
    if locus["rest"] > 0.0:
        freqs.append(locus["rest"])
    return freqs


def frequency_csv(panel: list[dict]) -> str:
    lines = ["locus,allele,frequency"]
    for locus in panel:
        for allele, freq in zip(locus["alleles"], locus["freqs"]):
            lines.append(f"{locus['locus']},{allele},{freq!r}")
    return "\n".join(lines) + "\n"


def _genotype(rng: random.Random, freqs: list[float]) -> tuple[int, int]:
    a, b = rng.choices(range(len(freqs)), weights=freqs, k=2)
    return (a, b) if a <= b else (b, a)


def make_cases(seed: int, panel: list[dict]) -> list[dict]:
    """One round of casework: each case has a genotype per contributor and
    locus, drawn from the locus frequencies (rest class included)."""
    rng = _rng(seed, "cases")
    sizes = list(CASE_CONTRIBUTORS)
    rng.shuffle(sizes)
    cases = []
    for n_contrib in sizes:
        genotypes = []
        for locus in panel:
            freqs = extended_freqs(locus)
            genotypes.append([_genotype(rng, freqs) for _ in range(n_contrib)])
        cases.append({"contributors": n_contrib, "genotypes": genotypes})
    return cases


def make_sim_sets(seed: int, panel: list[dict]) -> list[dict]:
    """About two dozen sampler parameter sets.

    Shapes follow a fixed design: I rises from 2 to 10, the locus walks the
    panel in steps of 7 (so A is spread over 6..40 independently of I),
    row sums alternate 2 / 20 and theta cycles through SIM_THETAS so every
    (row sum, theta) pair occurs.  The seed supplies the sampler seeds.
    """
    rng = _rng(seed, "sim")
    sets = []
    for k in range(SIM_SETS):
        n_rows = 2 + (8 * k) // (SIM_SETS - 1)
        sets.append({
            "locus": (7 * k) % len(panel),
            "rows": [20 if k % 2 else 2] * n_rows,
            "theta": SIM_THETAS[(k // 2) % len(SIM_THETAS)],
            "sampler_seed": rng.randrange(2 ** 32),
        })
    order = list(range(SIM_SETS))
    rng.shuffle(order)
    return [sets[k] for k in order]


def make_curve_panel(seed: int) -> list[dict]:
    names = [f"C{k + 1:02d}_A{a}" for k, a in enumerate(CURVE_ALLELES)]
    panel = make_panel(seed, alleles=CURVE_ALLELES,
                       rest=(False,) * len(CURVE_ALLELES), names=names,
                       part="curves")
    rng = _rng(seed, "curve-order")
    rng.shuffle(panel)
    return panel


def table_csv(rows: list[list[int]]) -> str:
    width = len(rows[0])
    lines = ["profile," + ",".join(f"allele_{a + 1}" for a in range(width))]
    for i, row in enumerate(rows, start=1):
        lines.append(f"P{i}," + ",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def genotype_rows(genotypes, width: int) -> list[list[int]]:
    rows = []
    for a, b in genotypes:
        row = [0] * width
        row[a] += 1
        row[b] += 1
        rows.append(row)
    return rows


def make_cli_jobs(seed: int, panel: list[dict]) -> dict:
    """Files and argument lists for one round of CLI subprocesses.

    File names in the argument lists name files in the work directory; the
    cli workload turns them into paths there.
    """
    rng = _rng(seed, "cli")
    by_width = {n_categories(locus): locus for locus in panel}
    pmf_locus = panel[9]
    moments_locus = panel[8]
    sample_locus = panel[13]
    # ratio-curve enumerates O(A^4) genotype pairs: keep A <= 12
    ratio_locus = by_width[max(w for w in by_width if w <= 12)]
    width = n_categories(pmf_locus)
    freqs = extended_freqs(pmf_locus)
    table = genotype_rows([_genotype(rng, freqs) for _ in range(3)], width)
    jobs = {
        "pmf": ["pmf", "--freqs", "freqs.csv", "--table", "table.csv",
                "--locus", pmf_locus["locus"], "--theta", "0.01",
                "--out", "pmf.csv"],
        "moments": ["moments", "--freqs", "freqs.csv", "--locus",
                    moments_locus["locus"], "--theta", "0.03",
                    "--rows", "2,2,2", "--out", "moments.csv"],
        "sample": ["sample", "--freqs", "freqs.csv", "--locus",
                   sample_locus["locus"], "--theta", "0.1",
                   "--rows", "2,2,2,2", "--seed",
                   str(rng.randrange(2 ** 31)), "--out", "sample.csv"],
        "woe-curve": ["woe-curve", "--out", "woe.csv"],
        "ratio-curve": ["ratio-curve", "--freqs", "freqs.csv", "--locus",
                        ratio_locus["locus"], "--out", "ratio.csv"],
        "validate": ["validate", "--out", "validate.json"],
    }
    return {
        "files": {"freqs.csv": frequency_csv(panel),
                  "table.csv": table_csv(table)},
        "jobs": [(name, jobs[name]) for name in CLI_ROUND],
    }


def build(workload: str, seed: int) -> dict:
    """All inputs of one workload: 'files' (name -> text) plus plain data."""
    if workload == "curves":
        panel = make_curve_panel(seed)
        return {"files": {"freqs.csv": frequency_csv(panel)}, "panel": panel}
    panel = make_panel(seed)
    out = {"files": {"freqs.csv": frequency_csv(panel)}, "panel": panel}
    if workload == "casework":
        out["cases"] = make_cases(seed, panel)
    elif workload == "simulation":
        out["sets"] = make_sim_sets(seed, panel)
    elif workload == "cli":
        cli = make_cli_jobs(seed, panel)
        out["files"].update(cli["files"])
        out["jobs"] = cli["jobs"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def to_bytes(inputs: dict) -> bytes:
    """Canonical serialization, for the byte-identity tests."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
