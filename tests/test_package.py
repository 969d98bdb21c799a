import mfkrig


def test_every_exported_name_resolves():
    missing = [name for name in mfkrig.__all__ if not hasattr(mfkrig, name)]
    assert missing == []
    assert len(set(mfkrig.__all__)) == len(mfkrig.__all__)
