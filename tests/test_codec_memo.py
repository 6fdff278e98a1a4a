"""The block codec's decode memo: bounded FIFO with constant-time eviction.

Every wire the codec produces is remembered under its IV1, and IV1s are
issued strictly increasing and two apart, so the oldest live entry is
always ``iv1 - 2 * capacity``.  These tests pin the memo's membership to
the FIFO it has always been, and check that a wire the memo no longer
holds decodes through the verifying (MAC-checked) slow path to the same
fields a memo hit returns.
"""

import pytest

from repro.crypto.ctr import IntegrityError
from repro.crypto.engine import CryptoEngine
from repro.oram.block import Block, BlockCodec

BLOCK_BYTES = 32
CAPACITY = 5


def _codec() -> BlockCodec:
    codec = BlockCodec(CryptoEngine(b"memo-key"), BLOCK_BYTES)
    codec._memo_capacity = CAPACITY
    return codec


def _block(i: int) -> Block:
    return Block(address=i, path_id=i % 7, data=bytes([i % 256]) * BLOCK_BYTES,
                 version=i)


def _iv1(wire: bytes) -> int:
    return int.from_bytes(wire[:8], "little")


def _fields(block: Block):
    return (block.address, block.path_id, block.data, block.version)


class _DecryptSpy:
    """Counts the cipher decrypts a codec runs (the memo-miss path)."""

    def __init__(self, monkeypatch, codec: BlockCodec):
        self.calls = 0
        engine = codec._engine
        decrypt, decrypt_batch = engine.decrypt, engine.decrypt_batch

        def spy_decrypt(ciphertext, iv):
            self.calls += 1
            return decrypt(ciphertext, iv)

        def spy_decrypt_batch(ciphertexts, ivs):
            self.calls += len(ciphertexts)
            return decrypt_batch(ciphertexts, ivs)

        monkeypatch.setattr(engine, "decrypt", spy_decrypt)
        monkeypatch.setattr(engine, "decrypt_batch", spy_decrypt_batch)


def _fill(codec: BlockCodec, count: int):
    """Encode exactly ``count`` blocks, mixing single and path encodes."""
    wires = []
    i = 0
    while len(wires) < count:
        if i % 3 == 0:
            wires.append(codec.encode(_block(len(wires))))
        else:
            size = min(1 + i % 4, count - len(wires))
            batch = [_block(len(wires) + k) for k in range(size)]
            wires.extend(codec.encode_path(batch))
        i += 1
    return wires


class TestMemoEviction:
    def test_memo_holds_exactly_the_newest_ivs(self):
        codec = _codec()
        issued = []
        for i in range(4 * CAPACITY):
            if i % 2:
                issued.append(_iv1(codec.encode(_block(i))))
            else:
                wires = codec.encode_path([_block(i), _block(i + 100)])
                issued.extend(_iv1(w) for w in wires)
            assert list(codec._plain_memo) == issued[-CAPACITY:]
        assert len(issued) > 3 * CAPACITY

    def test_ivs_are_two_apart(self):
        codec = _codec()
        ivs = [_iv1(w) for w in _fill(codec, 3 * CAPACITY + 1)]
        assert ivs == list(range(1, 2 * len(ivs), 2))


class TestEvictedWireDecode:
    def test_evicted_wire_takes_slow_path_with_same_fields(self, monkeypatch):
        codec = _codec()
        wire = codec.encode(_block(42))
        spy = _DecryptSpy(monkeypatch, codec)
        hit = codec.decode(wire)
        assert spy.calls == 0  # memo hit
        _fill(codec, CAPACITY)
        assert _iv1(wire) not in codec._plain_memo
        slow = codec.decode(wire)
        assert spy.calls == 2  # header + payload, MAC-verified
        assert _fields(slow) == _fields(hit) == _fields(_block(42))

    def test_decode_path_mixes_hits_and_evicted(self, monkeypatch):
        codec = _codec()
        old = codec.encode_path([_block(1), _block(2)])
        _fill(codec, CAPACITY - 1)
        assert _iv1(old[0]) not in codec._plain_memo
        assert _iv1(old[1]) in codec._plain_memo
        spy = _DecryptSpy(monkeypatch, codec)
        decoded = codec.decode_path(old)
        assert spy.calls == 2  # only the evicted wire's header + payload
        assert [_fields(b) for b in decoded] == [
            _fields(_block(1)), _fields(_block(2))
        ]

    def test_decode_header_of_evicted_wire(self, monkeypatch):
        codec = _codec()
        wire = codec.encode(_block(9))
        hit = codec.decode_header(wire)
        _fill(codec, CAPACITY)
        spy = _DecryptSpy(monkeypatch, codec)
        slow = codec.decode_header(wire)
        assert spy.calls == 1
        assert _fields(slow) == _fields(hit)
        assert slow.data == bytes(BLOCK_BYTES)


class TestTamperedWire:
    @staticmethod
    def _tamper(wire: bytes) -> bytes:
        flipped = bytearray(wire)
        flipped[-1] ^= 0x01
        return bytes(flipped)

    @pytest.mark.parametrize("evicted", [False, True])
    def test_tampered_wire_raises(self, evicted):
        codec = _codec()
        wire = codec.encode(_block(3))
        if evicted:
            _fill(codec, CAPACITY)
        assert (_iv1(wire) in codec._plain_memo) is not evicted
        with pytest.raises(IntegrityError):
            codec.decode(self._tamper(wire))
        with pytest.raises(IntegrityError):
            codec.decode_path([self._tamper(wire)])
