"""The WAL writes each record exactly as ``canonical_json`` would.

The WAL encodes the entries the stores already normalized with one shared
encoder, without a second ``normalize`` walk.  These tests hold it to the
reference: every line it writes, through every store's write API, is the
checksum plus ``canonical_json`` of the record the log entry makes — ±inf,
−0.0, 1 against 1.0, unicode, nested arrays and objects, and tuples given
at the API included.
"""

import math
import os
import tempfile
import zlib

from hypothesis import given, settings, strategies as st

from repro.core.database import MultiModelDB
from repro.core.datamodel import canonical_json
from repro.objectmodel.globals import GlobalsStore
from repro.relational.schema import Column, TableSchema
from repro.storage.wal import entry_to_record
from repro.widecolumn.table import CqlColumn

_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 1.0, 1e308]),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FLOATS, st.text(max_size=8)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


def _expected_lines(db, since_lsn):
    lines = []
    for entry in db.context.log.entries_since(since_lsn):
        payload = canonical_json(entry_to_record(entry))
        lines.append(f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}")
    return lines


def _write_everywhere(db, value, text):
    """One write of *value* (or *text* where only a string fits) through
    each store's write API, inside one transaction and outside any."""
    docs = db.create_collection("docs")
    table = db.create_table(TableSchema(
        "t", [Column("id", "integer"), Column("body", "json")], primary_key="id"
    ))
    bucket = db.create_bucket("kv")
    graph = db.create_graph("g")
    spatial = db.create_spatial("geo")
    wide = db.create_wide_table(
        "w", [CqlColumn("id", "int"), CqlColumn("name", "text"),
              CqlColumn("xs", ("list", "float"))], "id",
    )
    triples = db.create_triple_store("rdf")
    trees = db.create_tree_store("trees")
    globals_store = GlobalsStore(db.context, "glob")
    floats = [item for item in (value if isinstance(value, (list, tuple)) else [value])
              if type(item) is float]

    docs.insert({"_key": "a", "v": value, "t": text})
    docs.replace("a", {"v": [value, value], "t": (text, 1)})
    docs.update("a", {"patch": value})
    table.insert({"id": 1, "body": value})
    table.update(1, {"body": {"nested": value}})
    bucket.put("k", value)
    graph.add_vertex("v1", {"p": value})
    graph.add_vertex("v2")
    graph.add_edge("v1", "v2", "knows", {"w": value})
    spatial.put_point("p", 1.5, -0.0, {"p": value})
    wide.insert({"id": 1, "name": text, "xs": floats})
    triples.add(text or "s", "p", "o")
    trees.insert_json("doc.json", {"v": value})
    globals_store.set(("x", 1), value)
    with db.transaction() as txn:
        docs.insert({"_key": "b", "v": value}, txn=txn)
        bucket.put("k", [value, text], txn=txn)
        table.update(1, {"body": value}, txn=txn)
    bucket.delete("k")


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_VALUES, st.text(min_size=1, max_size=6))
def test_every_line_is_canonical_json_of_its_record(value, text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "wal.log")
        db = MultiModelDB()
        start = db.context.log.last_lsn
        db.attach_wal(path, sync=False)
        _write_everywhere(db, value, text)
        db.close()
        with open(path, encoding="utf-8") as handle:
            written = handle.read().splitlines()
        assert written == _expected_lines(db, start)


def test_infinity_commits_durably_and_recovers_equal(tmp_path):
    path = str(tmp_path / "wal.log")
    document = {"_key": "x", "high": float("inf"), "low": -math.inf, "z": -0.0}
    db = MultiModelDB()
    db.create_collection("docs")
    db.attach_wal(path, sync=True)
    db.collection("docs").insert(document)
    db.close()
    with open(path, encoding="utf-8") as handle:
        assert "Infinity" in handle.read()

    recovered = MultiModelDB()
    recovered.create_collection("docs")
    redone, discarded = recovered.recover(path)
    assert (redone, discarded) == (1, 0)
    stored = recovered.collection("docs").get("x")
    assert stored == document
    assert math.copysign(1.0, stored["z"]) == -1.0
