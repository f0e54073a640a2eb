import dynball


def test_every_exported_name_resolves():
    missing = [name for name in dynball.__all__ if not hasattr(dynball, name)]
    assert missing == []
    assert len(set(dynball.__all__)) == len(dynball.__all__)
