# SPDX-License-Identifier: Apache-2.0
"""Shared test configuration.

Property-based tests run derandomized so the suite is reproducible; the
acceptance module reports one PASS/FAIL line per criterion in the terminal
summary.
"""

from __future__ import annotations

import warnings
from contextlib import suppress

from hypothesis import settings

# hypothesis's pytest plugin imports this module to report a failing
# example; it imports libcst, whose import emits a DeprecationWarning that
# the suite's "error" filter would turn into an INTERNALERROR, ending the
# run without the example.  Imported once here, the warning is not raised
# again.
with warnings.catch_warnings(), suppress(ImportError):  # libcst optional
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("ci", derandomize=True, max_examples=60,
                          deadline=None)
# random, wide and outside tier-1: pytest --hypothesis-profile wide.  No
# example database, so that --hypothesis-seed alone repeats a run
settings.register_profile("wide", max_examples=1_000, deadline=None,
                          database=None)
settings.load_profile("ci")


_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        name = nodeid.split("::")[-1]
        outcome = "PASS" if _ACCEPTANCE[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {outcome}")
