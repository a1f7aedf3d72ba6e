"""Direct unit tests for engine internals: expression trees, LSM
structures, the inverted index, analysis helpers."""


from repro.databases.columnar.memtable import Memtable, SSTable, compact, merge_row
from repro.databases.relational.expression import (
    ALWAYS,
    And,
    Eq,
    where_from_dict,
)
from repro.databases.search.inverted_index import InvertedIndex


class TestExpressions:
    def test_always(self):
        assert ALWAYS.matches({})
        assert ALWAYS.equality_candidates() == []

    def test_equality_candidates_from_and(self):
        expr = And(And(Eq("a", 1), Eq("b", 2)), Eq("c", 3))
        assert expr.equality_candidates() == [("a", 1), ("b", 2), ("c", 3)]

    def test_comparisons_with_none_never_match(self):
        assert not Eq("x", 1).matches({"x": None})
        assert not Eq("x", 1).matches({})

    def test_mixed_type_comparison_never_matches(self):
        # No coercion: the text "1" is not the integer 1.
        assert not Eq("x", 1).matches({"x": "1"})
        assert not Eq("x", "5").matches({"x": 5})

    def test_where_from_dict(self):
        assert where_from_dict(None) is ALWAYS
        assert where_from_dict({}) is ALWAYS
        single = where_from_dict({"a": 1})
        assert isinstance(single, Eq)
        multi = where_from_dict({"a": 1, "b": 2})
        assert isinstance(multi, And)
        assert multi.matches({"a": 1, "b": 2})
        assert not multi.matches({"a": 1, "b": 3})

    def test_repr_smoke(self):
        text = repr(where_from_dict({"a": 1, "b": "x"}))
        assert text == "((a = 1) AND (b = 'x'))"


class TestMemtableAndSSTables:
    def test_newest_timestamp_wins_per_cell(self):
        memtable = Memtable()
        memtable.put(("k",), {"a": 1, "b": 1}, timestamp=1)
        memtable.put(("k",), {"a": 2}, timestamp=2)
        row = merge_row(("k",), [memtable])
        assert row == {"a": 2, "b": 1}

    def test_tombstone_shadows_older_cells_only(self):
        memtable = Memtable()
        memtable.put(("k",), {"a": 1}, timestamp=1)
        memtable.delete(("k",), timestamp=2)
        assert merge_row(("k",), [memtable]) is None
        memtable.put(("k",), {"a": 3}, timestamp=3)
        assert merge_row(("k",), [memtable]) == {"a": 3}

    def test_merge_across_sources_newest_first(self):
        old = Memtable()
        old.put(("k",), {"a": 1, "b": 1}, timestamp=1)
        sstable = SSTable.from_memtable(old)
        fresh = Memtable()
        fresh.put(("k",), {"a": 9}, timestamp=5)
        assert merge_row(("k",), [fresh, sstable]) == {"a": 9, "b": 1}

    def test_compact_drops_shadowed_cells(self):
        m1 = Memtable()
        m1.put(("k",), {"a": 1}, timestamp=1)
        m2 = Memtable()
        m2.delete(("k",), timestamp=2)
        m3 = Memtable()
        m3.put(("k",), {"a": 3}, timestamp=3)
        merged = compact([SSTable.from_memtable(m) for m in (m1, m2, m3)])
        assert merged.cells[("k",)]["a"] == (3, 3)
        assert merged.tombstones[("k",)] == 2
        # Fully-shadowed rows vanish.
        m4 = Memtable()
        m4.put(("gone",), {"a": 1}, timestamp=1)
        m5 = Memtable()
        m5.delete(("gone",), timestamp=9)
        merged = compact([SSTable.from_memtable(m) for m in (m4, m5)])
        assert ("gone",) not in merged.cells

    def test_approximate_size(self):
        memtable = Memtable()
        memtable.put(("a",), {"x": 1}, 1)
        memtable.delete(("b",), 2)
        assert memtable.approximate_size() == 2


class TestInvertedIndex:
    def test_term_and_document_frequency(self):
        index = InvertedIndex()
        index.add(1, ["cat", "cat", "dog"])
        index.add(2, ["dog"])
        assert index.term_frequency("cat", 1) == 2
        assert index.term_frequency("cat", 2) == 0
        assert index.document_frequency("dog") == 2
        assert index.doc_ids("cat") == {1}
        assert len(index.postings) == 2

    def test_remove_cleans_empty_postings(self):
        index = InvertedIndex()
        index.add(1, ["solo"])
        index.add(2, ["shared"])
        index.remove(1)
        assert index.document_frequency("solo") == 0
        assert len(index.postings) == 1
        assert index.doc_lengths == {2: 1}

    def test_doc_lengths(self):
        index = InvertedIndex()
        index.add(7, ["a", "b", "c"])
        assert index.doc_lengths[7] == 3
