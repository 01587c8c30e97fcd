"""The package's public surface."""

import intham


def test_every_exported_name_resolves():
    missing = [name for name in intham.__all__ if not hasattr(intham, name)]
    assert missing == []
