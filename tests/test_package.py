"""The package's export list."""

from __future__ import annotations

import psrelief


def test_every_exported_name_resolves():
    missing = [name for name in psrelief.__all__ if not hasattr(psrelief, name)]
    assert missing == []
