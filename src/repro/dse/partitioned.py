"""Tombstone of the retired hash-partitioned store: exists only so that
``from repro.dse import partitioned`` (perfbench's tracer) still imports."""

from .store import _partitioned_store_error


class PartitionedStore:
    def __init__(self, path, *args, **kwargs):
        raise _partitioned_store_error(path)
