"""A keyed pseudo-random function on BLAKE2b.

This is the primitive everything else in :mod:`repro.crypto` builds on:
counter-mode keystream generation and MAC tags are both PRF evaluations.
BLAKE2b's keyed mode gives us a fast, dependency-free keyed hash from the
standard library.
"""

from __future__ import annotations

import hashlib

#: LE64 encoding of counter 0, hoisted for the single-digest fast path.
_COUNTER0 = (0).to_bytes(8, "little")


class Prf:
    """Keyed PRF: ``bytes -> digest_size bytes``."""

    def __init__(self, key: bytes, digest_size: int = 16):
        if not key:
            raise ValueError("PRF key must be non-empty")
        if not 1 <= digest_size <= 64:
            raise ValueError(f"digest size must be in [1, 64], got {digest_size}")
        self._key = key[:64]  # BLAKE2b keyed mode allows at most 64 key bytes.
        self._digest_size = digest_size
        # The keyed, sized BLAKE2b state is built once; every evaluation
        # copies it and feeds the message.  The digests are those of a
        # fresh ``blake2b(message, key=..., digest_size=...)``, without
        # re-running the parameter-block and key setup per call.
        self._base = hashlib.blake2b(key=self._key, digest_size=digest_size)

    @property
    def digest_size(self) -> int:
        return self._digest_size

    def evaluate(self, message: bytes) -> bytes:
        """PRF output for ``message``."""
        h = self._base.copy()
        h.update(message)
        return h.digest()

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """``length`` keystream bytes derived from ``nonce`` in counter mode.

        The output is a frozen wire format (tests/test_crypto_golden.py):
        block ``i`` is ``BLAKE2b(nonce || LE64(i))`` at this PRF's digest
        size, truncated to ``length``.  A wider one-shot digest would be
        faster still but changes every ciphertext (the digest size is part
        of BLAKE2b's parameter block), so optimizations here must keep the
        per-counter digest structure.
        """
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        if length == 0:
            return b""
        copy = self._base.copy
        digest_size = self._digest_size
        if length <= digest_size:
            # One digest covers the request (the common case for headers
            # and MAC-sized outputs): no buffer assembly at all.
            h = copy()
            h.update(nonce + _COUNTER0)
            digest = h.digest()
            return digest if length == digest_size else digest[:length]
        out = bytearray(length)  # preallocated; no quadratic regrowth
        pos = 0
        counter = 0
        while pos < length:
            h = copy()
            h.update(nonce + counter.to_bytes(8, "little"))
            block = h.digest()
            take = length - pos
            if take >= digest_size:
                out[pos : pos + digest_size] = block
                pos += digest_size
            else:
                out[pos:] = block[:take]
                pos = length
            counter += 1
        return bytes(out)

    def keystream_many(self, nonces, length: int):
        """Keystreams for many nonces of one shared ``length``, in one walk.

        Byte-identical to ``[self.keystream(n, length) for n in nonces]``
        (the frozen per-counter digest wire format is untouched); the win
        is amortization: the keyed state's ``copy`` and the LE64 counter
        encodings are bound once for the whole batch instead of once per
        block.  This is the primitive behind the path-batched
        codec pass (:meth:`repro.oram.block.BlockCodec.encode_path`).
        """
        if length < 0:
            raise ValueError(f"keystream length must be >= 0, got {length}")
        if length == 0:
            return [b"" for _ in nonces]
        copy = self._base.copy
        digest_size = self._digest_size
        streams = []
        append = streams.append
        if length <= digest_size:
            # Single-digest fast path for the whole batch (headers, MACs).
            for nonce in nonces:
                h = copy()
                h.update(nonce + _COUNTER0)
                digest = h.digest()
                append(digest if length == digest_size else digest[:length])
            return streams
        # Counter suffixes are shared by every nonce in the batch.
        num_blocks = -(-length // digest_size)
        counters = [i.to_bytes(8, "little") for i in range(num_blocks)]
        for nonce in nonces:
            parts = []
            for suffix in counters:
                h = copy()
                h.update(nonce + suffix)
                parts.append(h.digest())
            out = b"".join(parts)
            append(out[:length] if len(out) != length else out)
        return streams

    def derive(self, label: str) -> "Prf":
        """Derive an independent PRF keyed by ``label`` (domain separation)."""
        subkey = hashlib.blake2b(
            label.encode("utf-8"), key=self._key, digest_size=32
        ).digest()
        return Prf(subkey, self._digest_size)
