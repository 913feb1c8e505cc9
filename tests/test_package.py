import ncmcast


def test_every_export_resolves():
    assert [name for name in ncmcast.__all__ if not hasattr(ncmcast, name)] == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ncmcast import *", namespace)
    assert set(ncmcast.__all__) <= namespace.keys()
