"""The package's public names."""

import hamcircle


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from hamcircle import *", namespace)
    assert [name for name in hamcircle.__all__ if name not in namespace] == []
