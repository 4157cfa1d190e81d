"""A hash probe meets exactly the values the data model calls equal.

The extendible hash index and the bitmap index find an entry through
``probe_token`` (``value_token``), not through a digest or canonical JSON:
1 and 1.0 meet, and so do -0.0 and 0 and an object's keys in either order;
true and 1, "1" and 1 do not.  A value the model cannot hold (NaN, a
non-string object key, a Python set) raises ``DataModelError`` as
``hash_value`` does, rather than missing.  The indexes, the store APIs they
serve and an MMQL ``IndexScan`` all answer as a scan does.
"""

import pytest

from repro import MultiModelDB
from repro.core.datamodel import hash_value, values_equal
from repro.errors import ConstraintViolationError, DataModelError
from repro.indexes.bitmap import BitmapIndex
from repro.indexes.hashindex import ExtendibleHashIndex
from repro.relational.schema import Column, TableSchema

#: Stored values: every pair the token must keep apart or bring together.
STORED = [
    1, True, False, "1", 0, 2.5, "", None,
    [1, [2, 3]], [1, 2], {"a": 1, "b": [2, 3]}, {"a": {"x": 1}}, [], {},
]

#: Probes: the stored values, and model-equal or near-miss variants.
PROBES = STORED + [
    1.0, -0.0, 0.0, 2.50, "true", [1.0, [2.0, 3]], [2, 1],
    {"b": [2.0, 3.0], "a": 1.0}, {"a": {"x": 1.0}}, {"a": 1}, [[1, [2, 3]]],
]

#: Probes outside the model: the digest refused them, so the map does.
REFUSED = [float("nan"), [1, float("nan")], {"a": float("nan")}, {1: "a"}, {1, 2}, object()]


def _expected(probe):
    return sorted(rid for rid, value in enumerate(STORED) if values_equal(value, probe))


@pytest.mark.parametrize("make", [lambda: ExtendibleHashIndex(bucket_capacity=2), BitmapIndex],
                         ids=["hash", "bitmap"])
def test_the_index_meets_exactly_the_model_equal_values(make):
    index = make()
    for rid, value in enumerate(STORED):
        index.insert(value, rid)
    for probe in PROBES:
        assert sorted(index.search(probe)) == _expected(probe), probe
    assert sorted(index.search(1.0)) == [0] and index.search(-0.0) == [4]
    assert index.search("true") == [] and index.search([2, 1]) == []


def test_a_delete_and_a_unique_check_meet_the_same_values():
    index = ExtendibleHashIndex(unique=True)
    index.insert({"a": 1, "b": [2, 3]}, "r")
    with pytest.raises(ConstraintViolationError):
        index.insert({"b": [2.0, 3.0], "a": 1.0}, "s")
    index.insert(True, "t")  # true is not 1
    index.delete({"b": [2, 3], "a": 1.0}, "r")
    assert index.search({"a": 1, "b": [2, 3]}) == [] and len(index) == 1


@pytest.mark.parametrize("make", [ExtendibleHashIndex, BitmapIndex], ids=["hash", "bitmap"])
@pytest.mark.parametrize("probe", REFUSED, ids=repr)
def test_a_probe_outside_the_model_raises_as_the_digest_did(probe, make):
    with pytest.raises(DataModelError):
        hash_value(probe)
    index = make()
    index.insert(1, "r")
    for operation in (index.search, lambda key: index.insert(key, "s"),
                      lambda key: index.delete(key, "r")):
        with pytest.raises(DataModelError):
            operation(probe)


@pytest.mark.parametrize("kind", ["hash", "bitmap"])
def test_the_store_apis_answer_as_a_scan_does(kind):
    db = MultiModelDB()
    docs = db.create_collection("c")
    table = db.create_table(TableSchema("t", [Column("id", "integer"), Column("v")], "id"))
    for rid, value in enumerate(STORED):
        docs.insert({"_key": str(rid), "v": value})
        table.insert({"id": rid, "v": value})
    scanned = {
        repr(probe): (
            sorted(d["_key"] for d in docs.find_path_equals("v", probe)),
            sorted(r["id"] for r in table.where_equals("v", probe)),
        )
        for probe in PROBES
    }
    docs.create_index("v", kind=kind)
    table.create_index("v", kind=kind)
    for probe in PROBES:
        indexed = (
            sorted(d["_key"] for d in docs.find_path_equals("v", probe)),
            sorted(r["id"] for r in table.where_equals("v", probe)),
        )
        assert indexed == scanned[repr(probe)], probe
        assert indexed[1] == _expected(probe), probe
    with pytest.raises(DataModelError):
        docs.find_path_equals("v", float("nan"))


@pytest.mark.parametrize("kind", ["hash", "bitmap"])
def test_an_mmql_index_scan_answers_as_a_scan_does(kind):
    text = "FOR d IN c FILTER d.v == @v SORT d._key RETURN d._key"
    plain, indexed = MultiModelDB(), MultiModelDB()
    for db in (plain, indexed):
        docs = db.create_collection("c")
        for rid, value in enumerate(STORED):
            docs.insert({"_key": f"{rid:02d}", "v": value})
    indexed.collection("c").create_index("v", kind=kind)
    assert "IndexScan" in indexed.explain(text, {"v": 1})
    for probe in PROBES:
        if probe is None:
            continue  # `== null` never takes an index
        scanned = plain.query(text, {"v": probe})
        probed = indexed.query(text, {"v": probe})
        assert probed.rows == scanned.rows, probe
        assert probed.stats["index_lookups"] >= 1, probe
