"""The retrieval digests of ``retrieval_digest.py``, pinned.

A change that means to alter what ``retrieve`` answers re-pins
``PINNED_ANSWERS`` and ``PINNED_FULL`` with the values ``PYTHONPATH=src python
tests/retrieval_digest.py`` prints, and records the old and the new values in
CHANGES.md.  A change that alters only stats or traces re-pins ``PINNED_FULL``
alone.
"""

from retrieval_digest import digest

PINNED_FULL = "cf8ca58ed98b5d075c24e05b66a11db45b022c3ea08989e4671c6f543832f9db"
PINNED_ANSWERS = "472c5721dab436c5043e5015be0904204c29193553029ab324bff70d569f6d0a"


def test_retrieval_digest_is_pinned():
    assert digest() == (PINNED_FULL, PINNED_ANSWERS, 18000)
