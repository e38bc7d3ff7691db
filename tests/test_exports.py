"""The package's public names."""

import rpqres


def test_every_export_resolves():
    namespace = {}
    exec("from rpqres import *", namespace)
    assert set(rpqres.__all__) <= set(namespace)
