"""The retrieval digest of ``retrieval_digest.py``, pinned.

A change that means to alter what ``retrieve`` answers re-pins ``PINNED``
with the value ``PYTHONPATH=src python tests/retrieval_digest.py`` prints,
and records the old and the new value in CHANGES.md.
"""

from retrieval_digest import digest

PINNED = ("c78aab63d666c26994c5f04ef5eef657e62c83da7a77c341a6518d89ab54be94", 18000)


def test_retrieval_digest_is_pinned():
    assert digest() == PINNED
