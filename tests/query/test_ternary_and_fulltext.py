"""Ternary operator and FULLTEXT() in MMQL."""

import pytest

from repro import MultiModelDB


@pytest.fixture()
def db():
    db = MultiModelDB()
    reviews = db.create_collection("reviews")
    reviews.insert({"_key": "r1", "text": "excellent quality fast delivery", "stars": 5})
    reviews.insert({"_key": "r2", "text": "poor quality broke quickly", "stars": 1})
    reviews.insert({"_key": "r3", "text": "quality packaging excellent value", "stars": 4})
    db.context.indexes.create_index(
        reviews.namespace, ("text",), kind="fulltext", name="reviews_text"
    )
    return db


class TestTernary:
    def test_basic(self, db):
        assert db.query("RETURN 1 < 2 ? 'yes' : 'no'").rows == ["yes"]
        assert db.query("RETURN 1 > 2 ? 'yes' : 'no'").rows == ["no"]

    def test_lazy_branches(self, db):
        # The untaken branch would divide by zero.
        assert db.query("RETURN true ? 1 : (1 / 0)").rows == [1]
        assert db.query("RETURN false ? (1 / 0) : 2").rows == [2]

    def test_nested(self, db):
        result = db.query(
            "FOR r IN reviews SORT r._key "
            "RETURN r.stars >= 4 ? (r.stars == 5 ? 'great' : 'good') : 'bad'"
        )
        assert result.rows == ["great", "bad", "good"]

    def test_in_object_literal(self, db):
        result = db.query("RETURN {verdict: 2 > 1 ? 'hi' : 'lo', n: 1}")
        assert result.rows == [{"verdict": "hi", "n": 1}]

    def test_constant_folding(self, db):
        plan = db.explain("RETURN 1 < 2 ? 'yes' : 'no'")
        assert "'yes'" in plan
        assert "?" not in plan  # folded away

    def test_truthiness_of_condition(self, db):
        assert db.query("RETURN 0 ? 'a' : 'b'").rows == ["b"]
        assert db.query("RETURN 'nonempty' ? 'a' : 'b'").rows == ["a"]


class TestFulltextFunction:
    def test_term_search(self, db):
        result = db.query("RETURN FULLTEXT('reviews_text', 'excellent')")
        assert result.rows == [["r1", "r3"]]

    def test_implicit_and(self, db):
        result = db.query("RETURN FULLTEXT('reviews_text', 'excellent quality')")
        assert result.rows == [["r1", "r3"]]
        result = db.query("RETURN FULLTEXT('reviews_text', 'poor quality')")
        assert result.rows == [["r2"]]

    def test_join_fulltext_with_documents(self, db):
        result = db.query(
            """
            FOR key IN FULLTEXT('reviews_text', 'quality')
              LET review = DOCUMENT('reviews', key)
              FILTER review.stars >= 4
              RETURN key
            """
        )
        assert result.rows == ["r1", "r3"]

    def test_index_stays_fresh(self, db):
        db.collection("reviews").insert(
            {"_key": "r4", "text": "excellent purchase", "stars": 5}
        )
        result = db.query("RETURN FULLTEXT('reviews_text', 'excellent')")
        assert result.rows == [["r1", "r3", "r4"]]

    def test_wrong_index_kind(self, db):
        db.collection("reviews").create_index("stars", kind="hash", name="stars_idx")
        from repro.errors import FunctionError

        with pytest.raises(FunctionError):
            db.query("RETURN FULLTEXT('stars_idx', 'x')")


class TestFulltextInTransaction:
    """FULLTEXT takes the visibility rule: a transaction finds the
    documents its snapshot and its own writes hold, not the index's
    latest."""

    QUERY = "RETURN FULLTEXT('reviews_text', 'excellent')"

    def test_a_second_sessions_writes_after_begin_stay_unseen(self, db):
        reviews = db.collection("reviews")
        txn = db.begin()
        reviews.insert({"_key": "r4", "text": "excellent purchase", "stars": 5})
        reviews.update("r1", {"text": "mediocre quality"})
        reviews.update("r2", {"text": "excellent after all"})
        reviews.delete("r3")
        assert db.query(self.QUERY).rows == [["r2", "r4"]]
        assert db.query(self.QUERY, txn=txn).rows == [["r1", "r3"]]
        db.commit(txn)

    def test_own_writes_are_seen(self, db):
        reviews = db.collection("reviews")
        txn = db.begin()
        reviews.insert({"_key": "r4", "text": "excellent purchase"}, txn=txn)
        reviews.update("r1", {"text": "mediocre quality"}, txn=txn)
        reviews.update("r2", {"text": "excellent after all"}, txn=txn)
        reviews.delete("r3", txn=txn)
        assert db.query(self.QUERY, txn=txn).rows == [["r2", "r4"]]
        assert db.query(self.QUERY).rows == [["r1", "r3"]]
        db.abort(txn)

    @pytest.mark.parametrize(
        "isolation, expected",
        [("read_committed", ["r1", "r4"]), ("snapshot", ["r1", "r3"])],
    )
    def test_read_committed_sees_commits_snapshot_does_not(self, db, isolation, expected):
        reviews = db.collection("reviews")
        txn = db.begin(isolation)
        assert db.query(self.QUERY, txn=txn).rows == [["r1", "r3"]]
        reviews.insert({"_key": "r4", "text": "excellent purchase"})
        reviews.delete("r3")
        assert db.query(self.QUERY, txn=txn).rows == [expected]
        db.commit(txn)
