"""The package's public names: each one exported resolves, so a deleted
function cannot leave a dangling entry in ``csverify.__all__``."""

import csverify


def test_every_exported_name_resolves():
    assert len(set(csverify.__all__)) == len(csverify.__all__)
    missing = [name for name in csverify.__all__ if not hasattr(csverify, name)]
    assert not missing


def test_star_import_runs():
    namespace = {}
    exec("from csverify import *", namespace)
    assert set(csverify.__all__) <= set(namespace)
