"""Ring ORAM bucket store: slots + metadata lines in NVM.

Layout (all inside one NVM image)::

    [ slot region: num_buckets * (Z+S) lines |
      metadata region: num_buckets lines |
      PosMap region | version line | bounce lines ]

Every slot or metadata access is one timed line transfer, as in the Path
ORAM tree model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.config import ORAMConfig
from repro.mem.controller import NVMMainMemory
from repro.mem.request import Access, RequestKind
from repro.oram.block import Block, BlockCodec
from repro.oram.layout import PosMapRegion, TreeRegion
from repro.ring.metadata import BucketMetadata
from repro.util.bitops import bucket_index


@dataclass(frozen=True)
class RingParams:
    """Ring ORAM protocol parameters."""

    z: int = 4  # real slots per bucket
    s: int = 6  # dummy slots per bucket
    a: int = 3  # accesses between EvictPath operations

    def validate(self) -> None:
        if self.z < 1 or self.s < 1 or self.a < 1:
            raise ValueError("Ring parameters must all be >= 1")
        if self.s < self.a:
            # Each access consumes at most one dummy per bucket; the
            # EvictPath cadence must not outrun the dummy budget.
            raise ValueError(f"need S >= A, got S={self.s} A={self.a}")

    @property
    def slots_per_bucket(self) -> int:
        return self.z + self.s


class RingLayout:
    """Address map for one Ring ORAM instance."""

    def __init__(self, config: ORAMConfig, params: RingParams):
        params.validate()
        line = config.block_bytes
        self.slots = TreeRegion(
            base=0, height=config.height, z=params.slots_per_bucket, line_bytes=line
        )
        cursor = self.slots.size_bytes
        self.metadata_base = cursor
        cursor += self.slots.num_buckets * line
        self.posmap = PosMapRegion(
            base=cursor, num_entries=config.num_logical_blocks, line_bytes=line
        )
        cursor += self.posmap.size_bytes + 17 * line  # version + bounce scratch
        self.total_bytes = cursor

    def metadata_address(self, bucket_idx: int) -> int:
        return self.metadata_base + bucket_idx * self.slots.line_bytes


class RingBucketStore:
    """Functional + timed access to Ring ORAM buckets."""

    def __init__(
        self,
        layout: RingLayout,
        memory: NVMMainMemory,
        codec: BlockCodec,
        engine,
        params: RingParams,
    ):
        self.layout = layout
        self.memory = memory
        self.codec = codec
        self.engine = engine
        self.params = params
        self._meta_iv = 1

    @property
    def height(self) -> int:
        return self.layout.slots.height

    # -- metadata ---------------------------------------------------------------

    def load_metadata(self, bucket_idx: int) -> BucketMetadata:
        wire = self.memory.load_line(self.layout.metadata_address(bucket_idx))
        if wire is None:
            return BucketMetadata.empty(self.params.slots_per_bucket)
        return BucketMetadata.decode(wire, self.engine)

    def store_metadata(self, bucket_idx: int, metadata: BucketMetadata) -> int:
        self._meta_iv += 1
        wire = metadata.encode(self.engine, self._meta_iv)
        address = self.layout.metadata_address(bucket_idx)
        self.memory.store_line(address, wire)
        return address

    def read_metadata_timed(self, bucket_idx: int, mem_cycle: int) -> Tuple[BucketMetadata, int]:
        address = self.layout.metadata_address(bucket_idx)
        complete = self.memory.issue(address, Access.READ, mem_cycle, RequestKind.DATA_PATH)
        return self.load_metadata(bucket_idx), complete

    def write_metadata_timed(self, bucket_idx: int, metadata: BucketMetadata,
                             mem_cycle: int) -> int:
        address = self.store_metadata(bucket_idx, metadata)
        return self.memory.issue(address, Access.WRITE, mem_cycle, RequestKind.DATA_PATH)

    # -- slots ------------------------------------------------------------------

    def slot_address(self, bucket_idx: int, slot: int) -> int:
        return self.layout.slots.slot_address(bucket_idx, slot)

    def load_slot(self, bucket_idx: int, slot: int) -> Block:
        wire = self.memory.load_line(self.slot_address(bucket_idx, slot))
        if wire is None:
            return Block.dummy(self.codec.block_bytes)
        return self.codec.decode(wire)

    def store_slot(self, bucket_idx: int, slot: int, block: Block) -> int:
        address = self.slot_address(bucket_idx, slot)
        self.memory.store_line(address, self.codec.encode(block))
        return address

    def read_slot_timed(self, bucket_idx: int, slot: int, mem_cycle: int) -> Tuple[Block, int]:
        address = self.slot_address(bucket_idx, slot)
        complete = self.memory.issue(address, Access.READ, mem_cycle, RequestKind.DATA_PATH)
        return self.load_slot(bucket_idx, slot), complete

    def write_slot_timed(self, bucket_idx: int, slot: int, block: Block,
                         mem_cycle: int) -> int:
        address = self.store_slot(bucket_idx, slot, block)
        return self.memory.issue(address, Access.WRITE, mem_cycle, RequestKind.DATA_PATH)

    # -- path helpers ---------------------------------------------------------

    def path_buckets(self, path_id: int) -> List[int]:
        return [
            bucket_index(path_id, level, self.height)
            for level in range(self.height + 1)
        ]
