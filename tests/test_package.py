"""The package's public namespace: every exported name resolves, once."""

import qwalklab


def test_every_exported_name_resolves():
    missing = [name for name in qwalklab.__all__ if not hasattr(qwalklab, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    names = qwalklab.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
