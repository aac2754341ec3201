"""The package's public names: every name in __all__ resolves."""

from __future__ import annotations

import bitorsor_kit


def test_every_exported_name_resolves():
    names = bitorsor_kit.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(bitorsor_kit, n)] == []
    star: dict = {}
    exec("from bitorsor_kit import *", star)
    assert set(names) <= set(star)
