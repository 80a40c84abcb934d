import framec as fc


def test_all_names_resolve_once():
    missing = [name for name in fc.__all__ if not hasattr(fc, name)]
    assert missing == []
    assert len(fc.__all__) == len(set(fc.__all__))


def test_star_import():
    namespace = {}
    exec("from framec import *", namespace)
    assert set(fc.__all__) <= set(namespace)
