"""``datamodel.value_token``: one exact hashable token per model value.

Two values get equal tokens exactly when ``compare`` calls them equal, so
the sets and dicts keyed by it — RETURN DISTINCT, COLLECT groups, the
hash-join table, a transaction's scan, the log-only view's scan — need no
equality check behind them and cannot merge two distinct values.  The
regressions below patch ``hash_value`` so that values collide: keyed by a
digest, each of those paths dropped or merged a row.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import datamodel
from repro.core.database import MultiModelDB
from repro.core.datamodel import compare, value_token
from repro.storage.log import CentralLog, LogOp
from repro.storage.views import LogOnlyView

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, 1.0, 1.5, -2.0, -0.0]),
    st.sampled_from(["", "a", "b", "1"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None)
@given(left=VALUES, right=VALUES)
def test_tokens_meet_exactly_when_values_compare_equal(left, right):
    equal_tokens = value_token(left) == value_token(right)
    assert equal_tokens == (compare(left, right) == 0)
    if equal_tokens:
        assert hash(value_token(left)) == hash(value_token(right))


def test_token_corner_cases():
    assert value_token(1) == value_token(1.0) == 1
    assert value_token(True) != value_token(1)
    assert value_token([1, 2]) == value_token((1.0, 2))
    assert value_token({"a": 1, "b": [None]}) == value_token({"b": [None], "a": 1.0})
    assert value_token("a") != value_token(["a"])


def _containers_collide(monkeypatch):
    real = datamodel.hash_value

    def colliding(value):
        return 7 if isinstance(value, (dict, list)) else real(value)

    monkeypatch.setattr(datamodel, "hash_value", colliding)


def _keys_collide(monkeypatch):
    real = datamodel.hash_value

    def colliding(value):
        return 7 if value in ("a", "b") else real(value)

    monkeypatch.setattr(datamodel, "hash_value", colliding)


def test_collect_keeps_groups_apart_on_a_digest_collision(monkeypatch):
    _containers_collide(monkeypatch)
    rows = MultiModelDB().query(
        "FOR x IN [{a: 1}, {a: 2}, {a: 1}] COLLECT k = x INTO g "
        "RETURN {k: k, n: LENGTH(g)}"
    ).rows
    assert rows == [{"k": {"a": 1}, "n": 2}, {"k": {"a": 2}, "n": 1}]


def test_distinct_keeps_rows_apart_on_a_digest_collision(monkeypatch):
    _containers_collide(monkeypatch)
    rows = MultiModelDB().query(
        "FOR x IN [{a: 1}, [2], {a: 1.0}, [2.0]] RETURN DISTINCT x"
    ).rows
    assert rows == [{"a": 1}, [2]]


def test_in_transaction_scan_keeps_rows_on_a_digest_collision(monkeypatch):
    db = MultiModelDB()
    docs = db.create_collection("docs")
    docs.insert({"_key": "a"})
    docs.insert({"_key": "b"})
    _keys_collide(monkeypatch)
    text = "FOR d IN docs SORT d._key RETURN d._key"
    assert db.query(text).rows == ["a", "b"]
    with db.transaction() as txn:
        assert db.query(text, txn=txn).rows == ["a", "b"]


def test_log_only_scan_keeps_rows_on_a_digest_collision(monkeypatch):
    log = CentralLog()
    view = LogOnlyView(log)
    for key in ("a", "b"):
        log.append(1, LogOp.INSERT, "t", key, {"k": key})
    _keys_collide(monkeypatch)
    assert dict(view.scan("t")) == {"a": {"k": "a"}, "b": {"k": "b"}}
