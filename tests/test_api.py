# SPDX-License-Identifier: Apache-2.0
"""The public surface: every exported name resolves, the list of names is
pinned, and every `mdmix.<name>` the benchmark reads is still there.
Source checks keep theta = 0 a limit of the formulas rather than a case
they branch on, keep one conversion of a caller's integer and one of a
caller's real, keep one rule for where an output goes, pin each read of a
libm function, and keep every module free of imports it does not use."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

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
    # the numpy-backed names load on first access, as their module's own
    for name in mdmix.__all__:
        module = getattr(mdmix, name).__module__
        assert namespace[name] is getattr(sys.modules[module], name), name
    assert mdmix.woe_curve is mdmix.evidence.woe_curve
    assert set(mdmix.__all__) <= set(dir(mdmix))
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        mdmix.nope
    # each name is declared once: in model.__all__, in mdm.__all__, which
    # bind exactly those names and each module's own objects, or in the
    # lazy table
    for module in (mdmix.model, mdmix.mdm):
        bound = {}
        exec(f"from {module.__name__} import *", bound)
        del bound["__builtins__"]
        assert sorted(bound) == sorted(module.__all__)
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
    declared = [*mdmix.model.__all__, *mdmix.mdm.__all__, *mdmix._LAZY]
    assert mdmix.__all__ == sorted(declared)


def test_a_bare_import_reaches_a_lazy_module_by_attribute():
    code = ("import mdmix; "
            "print(mdmix.evidence.MarginState.__qualname__, "
            "mdmix.MdmSampler is mdmix.oracle.MdmSampler)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "MarginState True\n"


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


# the one function where theta = 0 is tested: it checks theta, forms
# (1 - theta) / theta and returns its alpha_total = inf limit, which every
# consumer reads as the limit, whatever the theta it came from
THETA_ZERO_SITES = ["model._pool_mass"]

# the functions that dispatch on the alpha_total = inf limit: the ratio
# functions' exact 1, the kernel's exact 0 and the sampler's fixed urn
INF_LIMIT_SITES = [
    "evidence._ratio_grid",
    "evidence._woe_pools",
    "evidence.pair_ratio",
    "evidence.woe_step",
    "logspace.log_scaled_rising",
    "oracle.MdmSampler.__init__",
]

# the one function that converts a caller's integer: it alone reads
# operator.index, so a bool, a float and a value below the field's least
# value get one refusal at every site
INT_SITES = ["model._as_count"]


# the functions that call the builtin float on a value, once per call: the
# one conversion of a caller's real, the two text parsers (the grid parser
# on each field's text and on each exact range point) and two values the
# library built itself
FLOAT_SITES = [
    "cli.parse_theta_grid",
    "cli.parse_theta_grid",
    "evidence._log_column",
    "model._as_real",
    "model.read_frequency_csv",
    "oracle.oracle_moment",
]

# the reads of math.lgamma, log, log1p and exp in the package, one entry
# per read: where a value's last bits can depend on the platform's libm
LIBM_SITES = [
    "cli.cmd_pmf",
    "evidence._log_column",
    "evidence._ratio_curves",
    *["evidence.pair_ratio"] * 6,
    "evidence.pair_ratio_via_pmfs",
    "logspace",
    "logspace.log_factorial",
    *["logspace.log_scaled_rising"] * 6,
    "model.AlleleFrequencies.__post_init__",
    *["model._chain_steps"] * 2,
    *["moments.factorial_moment"] * 2,
    "oracle._support_and_probs",
    *["validation.suite_hypergeometric"] * 3,
    *["validation.suite_marginal_conditional"] * 5,
]

# the functions that write to stdout: the one rule for where an output goes,
# and sample's metadata, which goes to the stream its table is not on
STDOUT_SITES = ["cli._opened", "cli.cmd_sample"]


def _calls_float(node) -> bool:
    """A call of the name float with an argument that is not a constant."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and not all(isinstance(arg, ast.Constant) for arg in node.args))


_LIBM = ("exp", "lgamma", "log", "log1p")


def _libm_names(tree) -> set[str]:
    """The names of _LIBM that tree imports from math."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "math"
            for alias in node.names if alias.name in _LIBM}


def _reads_libm(names):
    """A test for math.<f>, called or passed on, with f in _LIBM, or for
    a read of one of names, those that the module imports from math."""
    def hit(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in names and isinstance(node.ctx, ast.Load)
        return (isinstance(node, ast.Attribute) and node.attr in _LIBM
                and isinstance(node.value, ast.Name)
                and node.value.id == "math")
    return hit


def _reads_operator_index(node) -> bool:
    """operator.index, called or passed on, or index imported from
    operator."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(
            alias.name == "index" for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "index"
            and isinstance(node.value, ast.Name)
            and node.value.id == "operator")


def _reads_stdout(node) -> bool:
    """sys.stdout, read or passed on, stdout imported from sys, or a call of
    print with no file keyword, which writes to sys.stdout."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(
            alias.name == "stdout" for alias in node.names)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "print"
                and not any(kw.arg == "file" for kw in node.keywords))
    return (isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def _tests_theta_truth(test) -> bool:
    """Whether test is a bare theta-named value or has one as an operand
    of and, or or not, at any depth."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _tests_theta_truth(test.operand)
    if isinstance(test, ast.BoolOp):
        return any(map(_tests_theta_truth, test.values))
    return isinstance(test, (ast.Name, ast.Attribute)) and (
        _mentions_theta(test))


def _tests_theta_zero(node) -> bool:
    """An == or != comparison of a theta-named value with 0, or the test of
    an if, a conditional expression or a while that takes a theta-named
    value's truth, bare or as an operand of and, or and not."""
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(map(_mentions_theta, sides))
                and any(isinstance(side, ast.Constant)
                        and side.value == 0 for side in sides))
    return (isinstance(node, (ast.If, ast.IfExp, ast.While))
            and _tests_theta_truth(node.test))


def _compares_with_inf(node) -> bool:
    """A comparison with a name or attribute called inf, such as math.inf."""
    return isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Name) and side.id == "inf"
        or isinstance(side, ast.Attribute) and side.attr == "inf"
        for side in (node.left, *node.comparators))


def _sites(tree, scope, hit):
    """Yield the dotted scope of each node under tree for which hit holds,
    once per node."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        scope = f"{scope}.{tree.name}"
    if hit(tree):
        yield scope
    for child in ast.iter_child_nodes(tree):
        yield from _sites(child, scope, hit)


def _package_sites(hit) -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _sites(ast.parse(path.read_text()), path.stem, hit)
    return sorted(found)


def test_theta_zero_scan_counts_every_truth_test_of_theta():
    found = _sites(ast.parse(
        "def f(theta, x, m):\n"
        "    if x and theta: pass\n"
        "    while not (x or m.theta): pass\n"
        "    y = 1 if not theta else 2\n"
        "    if theta == 0.0 or x: pass\n"
        "    if x and theta > 0.5: pass\n"), "m", _tests_theta_zero)
    assert list(found) == ["m.f"] * 4


def test_limit_scan_counts_every_comparison_with_inf():
    found = _sites(ast.parse(
        "def f(a, m):\n"
        "    if a == inf: pass\n"
        "    y = a < math.inf\n"
        "    z = [k for k in a if k != np.inf]\n"
        "    w = a is m.inf or 0.0 < a\n"
        "    v = [inf, math.inf]\n"), "m", _compares_with_inf)
    assert list(found) == ["m.f"] * 4


def test_no_theta_zero_branch_in_the_pmf_and_moment_code():
    # theta = 0 is alpha_total = inf, where every scaled rising term is
    # exactly 0 and every ratio exactly 1; a new comparison of theta with 0
    # is a copy of a dispatch the formulas do not need
    assert _package_sites(_tests_theta_zero) == THETA_ZERO_SITES
    assert not hasattr(mdmix.logspace, "log_rising")


def test_the_alpha_total_inf_limit_is_read_at_the_pinned_sites():
    # a new site that tests alpha_total = inf is a new copy of the limit;
    # one that goes is a consumer that no longer reads it
    assert _package_sites(_compares_with_inf) == INF_LIMIT_SITES


def test_operator_index_scan_counts_every_read():
    found = _sites(ast.parse(
        "from operator import index\n"
        "def f(x, xs):\n"
        "    y = operator.index(x)\n"
        "    z = list(map(operator.index, xs))\n"
        "    w = operator.indexOf(xs, x) + x.index(0)\n"), "m",
        _reads_operator_index)
    assert list(found) == ["m", "m.f", "m.f"]


def test_a_callers_integer_is_converted_at_one_site():
    # a new site that reads operator.index is a second copy of the rule
    # that refuses a bool, a float and a value below the least value
    assert _package_sites(_reads_operator_index) == INT_SITES


def test_float_scan_counts_every_call_on_a_value():
    found = _sites(ast.parse(
        "def f(x, xs, m):\n"
        "    y = float(x) + float(m.p)\n"
        "    z = tuple(float(p) for p in xs)\n"
        "    w = float('inf'), float(), m.float(x), math.floor(x)\n"), "m",
        _calls_float)
    assert list(found) == ["m.f"] * 3


def test_a_callers_real_is_converted_at_one_site():
    # a new call of float on a value is a second copy of the rule that
    # refuses a bool and text, unless it parses text or formats output
    assert _package_sites(_calls_float) == FLOAT_SITES


def test_libm_scan_counts_every_read():
    tree = ast.parse(
        "from math import lgamma, log1p as l1p, inf\n"
        "def f(x, xs, m):\n"
        "    y = math.log(x) + lgamma(x) - l1p(x)\n"
        "    z = list(map(math.exp, xs))\n"
        "    w = m.log(x), math.log10(x), math.fsum(xs), inf, np.exp(x)\n"
        "    log = x\n")
    found = _sites(tree, "m", _reads_libm(_libm_names(tree)))
    assert list(found) == ["m.f"] * 4


def test_the_libm_reads_are_pinned():
    # a new read of a libm function is a new value whose bits depend on
    # the platform's libm; a memo of values the kernel computed adds none
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += _sites(tree, path.stem, _reads_libm(_libm_names(tree)))
    assert sorted(found) == LIBM_SITES


def test_stdout_scan_counts_every_write():
    found = _sites(ast.parse(
        "from sys import stdout\n"
        "def f(x, m):\n"
        "    sys.stdout.write(x)\n"
        "    print(x)\n"
        "    g(out=sys.stdout)\n"
        "    print(x, file=sys.stderr)\n"
        "    m.stdout.write(x), sys.stderr.write(x), m.print(x)\n"), "m",
        _reads_stdout)
    assert list(found) == ["m", "m.f", "m.f", "m.f"]


def test_stdout_or_a_file_is_decided_at_one_site():
    # a new write to stdout is a second copy of the rule that sends an
    # output to stdout for no path or '-' and to the file otherwise
    assert _package_sites(_reads_stdout) == STDOUT_SITES


def test_every_imported_name_is_used():
    # no linter runs on the package, so an import left behind by a
    # deletion would stay; a star import binds its module's __all__
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []
