"""The package's public names: every entry of splatgrad.__all__ resolves
and appears once, so a name dropped from the imports but left in
__all__ fails here instead of at a caller's star import."""

from collections import Counter

import splatgrad


def test_every_public_name_resolves():
    missing = [name for name in splatgrad.__all__ if not hasattr(splatgrad, name)]
    assert missing == []


def test_every_public_name_appears_once():
    repeated = [name for name, n in Counter(splatgrad.__all__).items() if n > 1]
    assert repeated == []
