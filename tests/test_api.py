import shidcone


def test_public_names_resolve():
    names = shidcone.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(shidcone, name), name
    namespace: dict = {}
    exec("from shidcone import *", namespace)
    assert set(names) <= set(namespace)
