# SPDX-License-Identifier: Apache-2.0
"""The public surface: every exported name resolves."""

from __future__ import annotations

import mdmix


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mdmix import *", namespace)
    missing = [name for name in mdmix.__all__ if name not in namespace]
    assert missing == []
    assert len(set(mdmix.__all__)) == len(mdmix.__all__)
    assert namespace["ProfileCounts"] is mdmix.model.ProfileCounts
