# SPDX-License-Identifier: Apache-2.0
"""The public surface: every exported name resolves, the list of names is
pinned, and every `mdmix.<name>` the benchmark reads is still there.
Source checks keep theta = 0 a limit of the formulas rather than a case
they branch on, and keep every module free of imports it does not use."""

from __future__ import annotations

import ast
import pathlib
import re

import mdmix
import mdmix.cli
import mdmix.logspace
import mdmix.oracle
import mdmix.validation
from mdmix import AlleleFrequencies, pair_ratio_curves

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SRC = pathlib.Path(mdmix.__file__).resolve().parent

PUBLIC_NAMES = [
    "AlleleFrequencies", "CountTable", "DispersionModel",
    "FrequencyFileError", "GenotypePair", "LocusFrequencies", "MdmParams",
    "MdmSampler", "MdmixError", "MultiplicityClass", "ParameterError",
    "ProfileCounts", "SizeGuardError", "SubsetSpec", "TableError",
    "conditional_over_alleles", "conditional_over_profiles",
    "covariance_matrix", "factorial_moment",
    "genotype_from_alleles", "hypergeometric_log_pmf",
    "marginal_over_alleles", "marginal_over_profiles", "mdm_chain_log_pmf",
    "mdm_log_pmf", "mean_matrix", "pair_ratio", "pair_ratio_curves",
    "pair_ratio_via_pmfs", "pair_ratio_via_steps", "read_frequency_csv",
    "theta_to_alpha", "woe_curve", "woe_margin_grid", "woe_step",
]


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mdmix import *", namespace)
    missing = [name for name in mdmix.__all__ if name not in namespace]
    assert missing == []
    assert len(set(mdmix.__all__)) == len(mdmix.__all__)
    assert namespace["ProfileCounts"] is mdmix.model.ProfileCounts


def test_public_names_are_pinned():
    assert sorted(mdmix.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 35


def test_every_name_the_benchmark_reads_resolves():
    paths = sorted(BENCH.glob("*.py"))
    assert paths, f"no benchmark sources under {BENCH}"
    dotted = set()
    for path in paths:
        dotted.update(re.findall(r"\bmdmix((?:\.\w+)+)", path.read_text()))
    assert "mdmix.oracle.CountTable" in {"mdmix" + d for d in dotted}
    unresolved = []
    for chain in sorted(dotted):
        obj = mdmix
        for part in chain.lstrip(".").split("."):
            if not hasattr(obj, part):
                unresolved.append("mdmix" + chain)
                break
            obj = getattr(obj, part)
    assert unresolved == []
    # the traced simulation pass rebinds this name and restores it from
    # mdmix.CountTable, so it must be the class the package exports
    assert mdmix.oracle.CountTable is mdmix.CountTable


def test_pair_ratio_curve_keys_carry_a_label():
    freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
    curves = pair_ratio_curves(freqs, (0.0, 0.1))
    assert sorted(cls.label for cls in curves) == [
        "()", "(2)", "(2,2)", "(3)", "(4)"]


def _mentions_theta(node) -> bool:
    return any(isinstance(n, ast.Name) and "theta" in n.id
               or isinstance(n, ast.Attribute) and "theta" in n.attr
               for n in ast.walk(node))


# the functions where theta = 0 is tested: its alpha_total = inf limit in
# the one function that checks theta and forms (1 - theta) / theta, the
# model's refusal of an alpha_total that overflows or underflows only at
# theta > 0, and the sampler's choice of a fixed or a reinforced urn
THETA_ZERO_SITES = [
    "model.DispersionModel.__post_init__",
    "model._pool_mass",
    "oracle.MdmSampler.__init__",
]


def _tests_theta_truth(test) -> bool:
    """Whether test is a bare theta-named value or has one as an operand
    of and, or or not, at any depth."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _tests_theta_truth(test.operand)
    if isinstance(test, ast.BoolOp):
        return any(map(_tests_theta_truth, test.values))
    return isinstance(test, (ast.Name, ast.Attribute)) and (
        _mentions_theta(test))


def _theta_zero_tests(tree, scope):
    """Yield the scope of each theta = 0 test under tree: an == or !=
    comparison of a theta-named value with 0, or the test of an if, a
    conditional expression or a while that takes a theta-named value's
    truth, bare or as an operand of and, or and not."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        scope = f"{scope}.{tree.name}"
    if isinstance(tree, ast.Compare):
        sides = [tree.left, *tree.comparators]
        if (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in tree.ops)
                and any(map(_mentions_theta, sides))
                and any(isinstance(side, ast.Constant)
                        and side.value == 0 for side in sides)):
            yield scope
    elif isinstance(tree, (ast.If, ast.IfExp, ast.While)):
        if _tests_theta_truth(tree.test):
            yield scope
    for child in ast.iter_child_nodes(tree):
        yield from _theta_zero_tests(child, scope)


def test_theta_zero_scan_counts_every_truth_test_of_theta():
    found = _theta_zero_tests(ast.parse(
        "def f(theta, x, m):\n"
        "    if x and theta: pass\n"
        "    while not (x or m.theta): pass\n"
        "    y = 1 if not theta else 2\n"
        "    if theta == 0.0 or x: pass\n"
        "    if x and theta > 0.5: pass\n"), "m")
    assert list(found) == ["m.f"] * 4


def test_no_theta_zero_branch_in_the_pmf_and_moment_code():
    # theta = 0 is alpha_total = inf, where every scaled rising term is
    # exactly 0 and every ratio exactly 1; a new comparison of theta with 0
    # is a copy of a dispatch the formulas do not need
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += _theta_zero_tests(tree, path.stem)
    assert sorted(found) == THETA_ZERO_SITES
    assert not hasattr(mdmix.logspace, "log_rising")


def test_every_imported_name_is_used():
    # no linter runs on the package, so an import left behind by a
    # deletion would stay; __init__.py imports only to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
