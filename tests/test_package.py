import folmi


def test_every_exported_name_resolves():
    assert len(set(folmi.__all__)) == len(folmi.__all__)
    assert [name for name in folmi.__all__ if not hasattr(folmi, name)] == []
    namespace = {}
    exec("from folmi import *", namespace)
    assert set(folmi.__all__) <= set(namespace)
    assert "sector_margins" in folmi.__all__
