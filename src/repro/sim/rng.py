"""Named, seeded random streams and stable 64-bit hashing.

Two rules keep the simulation deterministic:

* Nothing uses the global :mod:`random` state.  Every stochastic decision
  draws from a stream obtained from an :class:`RngFactory`, keyed by a
  descriptive name (e.g. ``("jvm", vm_name, pid, "class-load-order")``).
  The same factory seed and the same name always yield the same stream,
  regardless of creation order.

* Identity is process-stable (unlike built-in ``hash``, which is salted
  per process), and comes from one of two functions:

  - :func:`stable_hash64`, a BLAKE2b digest of type-tagged parts, for
    names, RNG seeds, cache fingerprints, content ids (a ROM class, the
    shared-cache header), each token stream's key, and every hash whose
    *value* is consumed (``compressed_fraction``, Bloom bits, class
    sizes);
  - :func:`mix64` and its array form :func:`mix64_many`, a splitmix64
    finalizer chain over integers, for every page token, which is only
    ever compared for equality.  A producer derives its stream key once
    with :func:`stable_hash64` (say ``("heap", vm, pid, area)``,
    ``("kdata", vm)`` or ``("file", file_id)``) and mixes the page,
    epoch and stream draws into it as integers; a page laid out from
    chunks sums the hashes of its slices under one key
    (:mod:`repro.mem.content`).  No page token is a BLAKE2b digest.
"""

from __future__ import annotations

import hashlib
import random
from typing import Tuple, Union

import numpy as np

_HashablePart = Union[str, int, bytes, float]


def _encode_part(part: _HashablePart) -> bytes:
    """Encode one hash component with an unambiguous type tag."""
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, bool):  # bool before int: bool is an int subclass
        return b"o" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"f" + repr(part).encode("ascii")
    raise TypeError(f"unhashable content part of type {type(part).__name__}")


def stable_hash64(*parts: _HashablePart) -> int:
    """A process-stable 64-bit hash of the given parts.

    The result is guaranteed non-zero so that callers may reserve 0 as a
    sentinel (the all-zero page token).
    """
    hasher = hashlib.blake2b(digest_size=8)
    for part in parts:
        encoded = _encode_part(part)
        hasher.update(len(encoded).to_bytes(4, "little"))
        hasher.update(encoded)
    value = int.from_bytes(hasher.digest(), "little")
    return value or 1


_MASK64 = (1 << 64) - 1


def mix64(key: int, *values: int) -> int:
    """Fold non-negative integers below 2**64 into a 64-bit ``key``.

    Each value is multiplied by the golden-ratio constant, xored into the
    running state and passed through the splitmix64 finalizer.  Both
    steps are bijections on 64 bits, so for a fixed prefix the result is
    injective in the last value, except that the one value that would
    give 0 gives 1: like :func:`stable_hash64`, the result is never 0,
    the reserved all-zero page token.
    """
    h = key
    for value in values:
        z = (h ^ (value * 0x9E3779B97F4A7C15)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h or 1


def mix64_many(key: int, *values) -> np.ndarray:
    """:func:`mix64` over numpy ``uint64`` arrays, element by element.

    ``values`` broadcast against each other (ints, sequences or arrays
    of non-negative integers below 2**64), and element ``i`` of the
    result equals ``mix64(key, v1[i], v2[i], ...)``: numpy's ``uint64``
    arithmetic wraps modulo 2**64, which is the masking :func:`mix64`
    does by hand.  A range producer computes all of its page tokens in
    one call instead of one :func:`mix64` per page.
    """
    columns = [np.asarray(value, dtype=np.uint64) for value in values]
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    # Flat 1-d arrays throughout: numpy scalars would warn on the wrap.
    h = np.full(shape, key, dtype=np.uint64).reshape(-1)
    for column in columns:
        z = h ^ (np.broadcast_to(column, shape).reshape(-1)
                 * np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = z ^ (z >> np.uint64(31))
    h[h == 0] = 1
    return h.reshape(shape)


class RngFactory:
    """Factory for independent, reproducibly seeded random streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, *name: _HashablePart) -> random.Random:
        """Return a fresh :class:`random.Random` for the given stream name.

        Calling this twice with the same name returns two independent
        generator objects that produce the same sequence.
        """
        return random.Random(stable_hash64(self._seed, *name))

    def derive(self, *name: _HashablePart) -> "RngFactory":
        """Return a child factory whose streams are namespaced by ``name``."""
        return RngFactory(stable_hash64(self._seed, "derive", *name))

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"


Name = Tuple[_HashablePart, ...]
