import rotmorse


def test_public_names_resolve_once():
    # A stale name in __all__ would make `from rotmorse import *` raise.
    assert len(set(rotmorse.__all__)) == len(rotmorse.__all__)
    namespace = {}
    exec("from rotmorse import *", namespace)
    assert all(name in namespace for name in rotmorse.__all__)
