"""The package's public names: each one resolves and is listed once."""

import fragdiff


def test_every_public_name_resolves():
    missing = [name for name in fragdiff.__all__ if not hasattr(fragdiff, name)]
    assert missing == []


def test_no_public_name_is_listed_twice():
    repeated = sorted({name for name in fragdiff.__all__
                       if fragdiff.__all__.count(name) > 1})
    assert repeated == []
