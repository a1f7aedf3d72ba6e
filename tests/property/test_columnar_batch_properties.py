"""A tombstone wins a timestamp tie with a put, in the memtable and across a flush."""

from repro.databases.columnar.memtable import Memtable, SSTable, merge_row


class TestBatchAtomicity:
    def test_tombstone_wins_timestamp_tie(self):
        """At one timestamp the delete shadows the put, whichever came
        first and whether or not a flush lies between them: Cassandra's
        tie-break rule."""
        for delete_first in (True, False):
            memtable = Memtable()
            if delete_first:
                memtable.delete((1,), timestamp=5)
            memtable.put((1,), {"v": 1}, timestamp=5)
            if not delete_first:
                memtable.delete((1,), timestamp=5)
            assert merge_row((1,), [memtable]) is None
            fresh = Memtable()
            fresh.put((1,), {"v": 1}, timestamp=5)
            assert merge_row((1,), [fresh, SSTable.from_memtable(memtable)]) is None
            # A later write resurrects the key.
            fresh.put((1,), {"v": 2}, timestamp=6)
            assert merge_row((1,), [fresh, SSTable.from_memtable(memtable)]) == {"v": 2}
