"""SHA-256 without OpenSSL.

Importing :mod:`hashlib` loads ``_hashlib``, which maps OpenSSL's
``libcrypto`` into the process (~3.5-3.9 MB RSS on CPython
3.10-3.13), yet the package only ever needs ``sha256()`` to key
traces, what-if cells and lint cache entries. CPython ships a
built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256`` before) whose
digests are the same bytes, and its own :mod:`random` imports its
SHA-512 the same way rather than through ``hashlib``. ``hashlib`` is
only the fallback, for an interpreter built without built-in hashes.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["sha256"]
