"""Nested-scope statements shared by the differential suites.

Each statement holds a subquery the outer rules leave in the plan (a
list-valued LET, a counted FILTER, a SORT key, a RETURN member, the
residual of a decorrelated join), so the optimizer plans it as a scope of
its own.  Every suite that takes them
(rule ablation, batch/columnar equivalence, 1-vs-3-shard scatter)
compares the rows with those of the unoptimized statement.  The
``COLLECT … INTO`` statements ride the same suites, and so do the
set-at-a-time lookups (``LOOKUP_*``): every key shape a per-batch dedupe
could get wrong, the errors it must not reorder, and a writing statement
it must leave frame by frame.

Every statement SORTs, outside and inside its list-valued subqueries: an
index probe and a scan may enumerate matches in different orders, and
MMQL promises none.
"""

#: Over the UniBench data.
NESTED_QUERIES = {
    "let_list_unindexed": (
        """
        FOR c IN customers
          FILTER c.credit_limit >= @floor
          LET said = (FOR f IN feedback
                        FILTER f.customer_id == c.id
                        SORT f._key
                        RETURN f._key)
          SORT c.id
          RETURN {id: c.id, said: said}
        """,
        {"floor": 3000},
    ),
    # The inner LET sits behind a multi-frame scan and reads nothing its
    # own query or its parent binds — only the outermost variable.  Taken
    # for uncorrelated it is materialized once, for the first product.
    "let_nested_reads_outermost": (
        """
        FOR p IN products
          FILTER p.category == @category
          LET reviews = (
            FOR f IN feedback
              FILTER f.product_no == p.product_no
              LET siblings = (FOR g IN feedback
                                FILTER g.product_no == p.product_no
                                RETURN g._key)
              SORT f._key
              RETURN {key: f._key, siblings: LENGTH(siblings)}
          )
          SORT p.product_no
          RETURN {product: p.product_no, reviews: reviews}
        """,
        {"category": "Book"},
    ),
    "subquery_in_filter": (
        """
        FOR c IN customers
          FILTER LENGTH(FOR o IN orders
                          FILTER o.customer_id == c.id AND o.total >= @floor
                          RETURN o) >= 2
          SORT c.id
          RETURN c.id
        """,
        {"floor": 100},
    ),
    "subquery_in_sort_key": (
        """
        FOR c IN customers
          FILTER c.credit_limit >= @floor
          SORT LENGTH(FOR o IN orders
                        FILTER o.customer_id == c.id RETURN 1) DESC, c.id
          LIMIT 10
          RETURN c.id
        """,
        {"floor": 3000},
    ),
    "subquery_in_return": (
        """
        FOR c IN customers
          FILTER c.city == @city
          SORT c.id
          RETURN {id: c.id,
                  totals: (FOR o IN orders
                             FILTER o.customer_id == c.id
                             SORT o.Order_no
                             RETURN o.total)}
        """,
        {"city": "Prague"},
    ),
    # Decorrelation turns the outer subquery into a semi join whose
    # residual holds the middle one; the LET inside that reads only the
    # join's own variable, bound for the residual and nowhere else.
    "subquery_in_join_residual": (
        """
        FOR c IN customers
          FILTER c.id <= @limit
          FILTER LENGTH(
            FOR o IN orders
              FILTER o.customer_id == c.id
                AND LENGTH(FOR wanted IN 2..3
                             LET mine = (FOR g IN orders
                                           FILTER g.customer_id == o.customer_id
                                           RETURN g._key)
                             FILTER LENGTH(mine) >= wanted
                             RETURN 1) > 0
              RETURN 1) > 0
          SORT c.id
          RETURN c.id
        """,
        {"limit": 40},
    ),
    "inner_shadows_outer": (
        """
        FOR p IN products
          FILTER p.category == @category
          LET wanted = p.product_no
          LET praise = (FOR p IN feedback
                          FILTER p.product_no == wanted AND p.positive == true
                          SORT p._key
                          RETURN p._key)
          SORT p.product_no
          RETURN {product: p.product_no, praise: praise}
        """,
        {"category": "Book"},
    ),
}

#: The statements that correlate only along the partition keys of the demo
#: placements (customers↔orders on the customer id, products↔feedback on
#: the product number), so a sharded cluster can answer them too;
#: feedback is partitioned by product, not by customer.
ALIGNED = sorted(set(NESTED_QUERIES) - {"let_list_unindexed"})

#: ``COLLECT … INTO members`` whose member lists feed aggregates: the
#: ``collect_into_aggregate`` rule swaps the lists for accumulators where
#: every group reaches every running aggregate of a member path, and the
#: rows must not notice.
COLLECT_QUERIES = {
    "collect_into_every_aggregate": (
        """
        FOR o IN orders
          LET c = DOCUMENT('customers', o.customer_id)
          COLLECT city = c.city INTO members
          SORT city
          RETURN {city,
                  spend: SUM(members[*].o.total),
                  low: MIN(members[*].o.total),
                  high: MAX(members[*].o.total),
                  mean: AVG(members[*].o.total),
                  orders: COUNT(members[*].o)}
        """,
        {},
    ),
    # Tenths do not add up exactly: the sum depends on the order of the
    # additions, which has to stay the order of the members.
    "collect_into_float_sum_order": (
        """
        FOR o IN orders
          LET c = DOCUMENT('customers', o.customer_id)
          LET tenth = o.total * 0.1
          COLLECT city = c.city INTO members
          SORT city
          RETURN {city,
                  spend: SUM(members[*].tenth),
                  mean: AVG(members[*].tenth)}
        """,
        {},
    ),
    # The same, grouped along the partition key of ``orders``: every
    # group lives on one shard, so a cluster adds in the same order too.
    "collect_into_float_sum_per_customer": (
        """
        FOR o IN orders
          LET tenth = o.total * 0.1
          COLLECT customer = o.customer_id INTO mine
          SORT customer
          RETURN {customer, spend: SUM(mine[*].tenth), n: COUNT(mine[*].o)}
        """,
        {},
    ),
    # Every category but one has members and not one non-NULL input.
    "collect_into_null_inputs": (
        """
        FOR p IN products
          LET priced = p.category == @category ? p.price : null
          COLLECT category = p.category INTO members
          SORT category
          RETURN {category,
                  total: SUM(members[*].priced),
                  low: MIN(members[*].priced),
                  high: MAX(members[*].priced),
                  mean: AVG(members[*].priced),
                  n: COUNT(members[*].priced),
                  missing: MAX(members[*].p.no_such_attribute)}
        """,
        {"category": "Book"},
    ),
    # Every category but one sums names: a running SUM would fail the
    # query on groups the FILTER (or the ternary) never lets SUM see.
    "collect_into_bad_input_in_a_dropped_group": (
        """
        FOR p IN products
          LET v = p.category == @category ? p.price : p.name
          COLLECT category = p.category INTO members
          FILTER category == @category
          RETURN {category, total: SUM(members[*].v), n: COUNT(members[*].p)}
        """,
        {"category": "Book"},
    ),
    "collect_into_bad_input_behind_a_ternary": (
        """
        FOR p IN products
          LET v = p.category == @category ? p.price : p.name
          COLLECT category = p.category INTO members
          SORT category
          RETURN {category,
                  total: category == @category ? SUM(members[*].v) : null,
                  top: category != @category OR MAX(members[*].v) > 0}
        """,
        {"category": "Book"},
    ),
    # Inside a subquery the member frames hold the enclosing variables.
    "collect_into_in_subquery": (
        """
        FOR c IN customers
          FILTER c.id <= @limit
          SORT c.id
          RETURN {id: c.id,
                  orders: (FOR o IN orders
                             FILTER o.customer_id == c.id
                             COLLECT customer = o.customer_id INTO mine
                             RETURN {n: COUNT(mine[*].o),
                                     spend: SUM(mine[*].o.total),
                                     credit: MAX(mine[*].c.credit_limit)})}
        """,
        {"limit": 40},
    ),
    # The shapes the rule leaves alone: the group's length, a count inside
    # a subquery, and a suffix that is not an attribute path.  A cluster
    # ships their members too.
    "collect_into_group_length": (
        """
        FOR o IN orders
          LET c = DOCUMENT('customers', o.customer_id)
          COLLECT city = c.city INTO members
          SORT city
          RETURN {city, n: LENGTH(members)}
        """,
        {},
    ),
    "collect_into_count_in_subquery": (
        """
        FOR c IN customers
          COLLECT city = c.city INTO members
          SORT city
          RETURN {city, n: (FOR i IN [1] RETURN COUNT(members))}
        """,
        {},
    ),
    "collect_into_index_suffix": (
        """
        FOR c IN customers
          COLLECT city = c.city INTO members
          SORT city
          RETURN {city, credit: SUM(members[*].c['credit_limit'])}
        """,
        {},
    ),
}

#: Those the rule has to leave their member lists: aggregates some group
#: never reaches, and member uses that are not a running aggregate of an
#: attribute path.
COLLECT_KEEPS_MEMBERS = {
    "collect_into_bad_input_in_a_dropped_group",
    "collect_into_bad_input_behind_a_ternary",
    "collect_into_group_length",
    "collect_into_count_in_subquery",
    "collect_into_index_suffix",
}

#: Those a sharded cluster answers bit for bit.  Partial sums of a group
#: spread over shards associate differently, so the by-city float sums
#: stay out.  The coordinator elides members only through the rule, so
#: the groups a later FILTER or a ternary spares ship their members and
#: are never aggregated, and so do the shapes the rule leaves.
COLLECT_SCATTER = sorted(set(COLLECT_QUERIES) - {"collect_into_float_sum_order"})

#: A subquery that writes reads the outer variables its DML expressions
#: name, like any other: the FILTER that holds it has to stay below the
#: FOR that binds them.  Over :func:`load_write_collections`, and written
#: to leave the data as they found it — the suites run each statement
#: many times on one database.  Kept out of ``NESTED_QUERIES``: a cluster
#: refuses writes inside subqueries.
WRITING_SUBQUERIES = {
    "replace_in_filter_subquery": (
        """
        FOR a IN pairs_left
          FOR b IN pairs_right
            FILTER LENGTH((FOR z IN [1]
                             REPLACE b._key WITH {v: b.v} IN pairs_right)) >= 0
            SORT a.v, b.v
            RETURN [a.v, b.v]
        """,
        {},
    ),
    "upsert_in_filter_subquery": (
        """
        FOR a IN pairs_left
          FOR b IN pairs_right
            FILTER LENGTH((FOR z IN [1]
                             UPSERT {k: b.v} INSERT {k: b.v}
                             UPDATE {seen: a.v >= 0} INTO pairs_seen)) >= 0
            SORT a.v, b.v
            RETURN [a.v, b.v]
        """,
        {},
    ),
}

#: Probe keys on which the model's ``==`` and a naive hash lookup could
#: part ways: 1 == 1.0, true != 1, '1' != 1, and a missing attribute
#: reads as NULL, which equals NULL.
PROBE_KEYS = [
    {"_key": "int", "k": 1},
    {"_key": "float", "k": 1.0},
    {"_key": "null", "k": None},
    {"_key": "missing"},
    {"_key": "string", "k": "1"},
    {"_key": "bool", "k": True},
]

PROBE_QUERY = """
FOR l IN probe_left
  LET matches = (FOR r IN probe_right
                   FILTER r.k == l.k
                   SORT r._key
                   RETURN r._key)
  SORT l._key
  RETURN {left: l._key, matches: matches}
"""


def load_probe_collections(db) -> None:
    """``probe_left`` ⋈ ``probe_right`` on ``k``, the right side indexed."""
    left = db.create_collection("probe_left")
    right = db.create_collection("probe_right")
    for document in PROBE_KEYS:
        left.insert(dict(document))
        right.insert(dict(document))
    right.create_index("k", kind="hash")


#: The frames of the lookup fixtures, one per key a per-batch dedupe could
#: get wrong: repeats (in one batch, and at width 2 across a batch
#: boundary), 1 beside 1.0 and '1', true beside 1, NULL beside a missing
#: attribute, an object and an array.
LOOKUP_KEYS = [
    {"_key": "k01", "n": 1, "k": "a"},
    {"_key": "k02", "n": 2, "k": "a"},
    {"_key": "k03", "n": 3, "k": 1},
    {"_key": "k04", "n": 4, "k": 1.0},
    {"_key": "k05", "n": 5, "k": "1"},
    {"_key": "k06", "n": 6, "k": True},
    {"_key": "k07", "n": 7, "k": None},
    {"_key": "k08", "n": 8},
    {"_key": "k09", "n": 9, "k": {"x": 1}},
    {"_key": "k10", "n": 10, "k": [1]},
    {"_key": "k11", "n": 11, "k": "b"},
    {"_key": "k12", "n": 12, "k": "a"},
    {"_key": "k13", "n": 13, "k": 2},
]

#: The keys a traversal can start from (strings and numbers).
_VERTEX_KEYS = "d.n IN [1, 2, 3, 4, 5, 11, 12, 13]"

#: Set-at-a-time lookups (the ``lookup_join`` rule, index scans, hash
#: joins, traversals) over :func:`load_lookup_collections`: every key of
#: :data:`LOOKUP_KEYS` probed, the rows identical whichever way.
LOOKUP_QUERIES = {
    "lookup_document_keys": (
        """
        FOR d IN lookup_keys
          FILTER d.n <= 8 OR d.n >= 11
          SORT d.n
          LET doc = DOCUMENT('lookup_docs', d.k)
          LET row = DOCUMENT('lookup_table', d.k)
          RETURN {n: d.n, doc: doc.tag, row: row.tag}
        """,
        {},
    ),
    "lookup_kv_keys": (
        """
        FOR d IN lookup_keys
          SORT d.n
          LET v = KV_GET('lookup_bucket', TO_STRING(d.k))
          RETURN {n: d.n, v: v}
        """,
        {},
    ),
    "lookup_index_keys": (
        """
        FOR d IN lookup_keys
          FOR e IN lookup_index
            FILTER e.k == d.k
            SORT d.n, e._key
            RETURN {n: d.n, e: e._key}
        """,
        {},
    ),
    "lookup_hash_join_keys": (
        """
        FOR d IN lookup_keys
          FOR e IN lookup_plain
            FILTER e.k == d.k AND e.w > d.n - 100
            SORT d.n, e._key
            RETURN {n: d.n, e: e._key}
        """,
        {},
    ),
    # A self-loop (a -> a) and a dangling edge (a -> a vertex removed
    # without its edges): neither yields a row at depth 1.
    "lookup_one_hop": (
        f"""
        FOR d IN lookup_keys
          FILTER {_VERTEX_KEYS}
          FOR v IN 1..1 OUTBOUND d.k GRAPH lookup_graph
            SORT d.n, v._key
            RETURN {{n: d.n, v: v._key}}
        """,
        {},
    ),
    "lookup_one_hop_any_label": (
        f"""
        FOR d IN lookup_keys
          FILTER {_VERTEX_KEYS}
          FOR v IN 1..1 ANY d.k GRAPH lookup_graph LABEL 'knows'
            SORT d.n, v._key
            RETURN {{n: d.n, v: v._key}}
        """,
        {},
    ),
    # Deeper and edge-binding traversals keep the BFS, set at a time too.
    "lookup_two_hops_with_edges": (
        f"""
        FOR d IN lookup_keys
          FILTER {_VERTEX_KEYS}
          FOR v, e IN 1..2 OUTBOUND d.k GRAPH lookup_graph
            SORT d.n, v._key
            RETURN {{n: d.n, v: v._key, e: e._key}}
        """,
        {},
    ),
}

#: A statement that writes keeps its lookups frame by frame: the rule
#: leaves the LET alone and the index scan probes per frame.  Every run
#: updates the documents :func:`load_lookup_collections` put there.
LOOKUP_WRITES = {
    "lookup_in_a_writing_statement": (
        """
        FOR d IN lookup_keys
          FILTER d.n <= 8 OR d.n >= 11
          LET doc = DOCUMENT('lookup_docs', d.k)
          FOR e IN lookup_index
            FILTER e.k == d.k
            UPSERT {k: d._key} INSERT {k: d._key, doc: doc._key}
            UPDATE {doc: doc._key} INTO lookup_seen
        """,
        {},
    ),
}

#: Statements that raise: the frame that fails first, and the class of its
#: error, must not depend on the batch a lookup gathers.
LOOKUP_ERRORS = {
    # Frame 3 probes KV_GET with a number before frame 5's key divides by 0.
    "kv_non_string_key_before_a_raising_key": (
        """
        FOR d IN lookup_keys
          SORT d.n
          LET v = KV_GET('lookup_bucket',
                         d.n == 3 ? d.k : (d.n == 5 ? d.n / 0 : TO_STRING(d.k)))
          RETURN v
        """,
        "FunctionError",
    ),
    "raising_key_before_a_kv_non_string_key": (
        """
        FOR d IN lookup_keys
          SORT d.n
          LET v = KV_GET('lookup_bucket',
                         d.n == 3 ? d.n / 0 : (d.n == 4 ? d.k : TO_STRING(d.k)))
          RETURN v
        """,
        "ExecutionError",
    ),
    "document_object_key": (
        """
        FOR d IN lookup_keys
          SORT d.n
          LET doc = DOCUMENT('lookup_docs', d.k)
          RETURN doc
        """,
        "FunctionError",
    ),
    "traversal_from_a_boolean": (
        """
        FOR d IN lookup_keys
          SORT d.n
          FOR v IN 1..1 OUTBOUND d.k GRAPH lookup_graph
            RETURN v
        """,
        "ExecutionError",
    ),
    # Frame 2's residual fails on a match before frame 5's key divides by 0.
    "index_residual_before_a_raising_key": (
        """
        FOR d IN lookup_keys
          SORT d.n
          FOR e IN lookup_index
            FILTER e.k == (d.n == 5 ? d.n / 0 : d.k)
              AND (d.n != 2 OR UPPER(e.w) == 'X')
            RETURN e
        """,
        "FunctionError",
    ),
}

#: Over the UniBench data, along the demo placements' partition keys, so a
#: sharded cluster answers them too.
LOOKUP_SCATTER = {
    "lookup_document_per_order": (
        """
        FOR o IN orders
          LET c = DOCUMENT('customers', o.customer_id)
          SORT o._key
          RETURN {order: o._key, city: c.city}
        """,
        {},
    ),
    "lookup_friends_carts": (
        """
        FOR c IN customers
          FILTER c.id <= @limit
          FOR friend IN 1..1 OUTBOUND c.id GRAPH social LABEL 'knows'
            LET cart = KV_GET('cart', friend._key)
            SORT c.id, friend._key
            RETURN {customer: c.id, friend: friend._key, cart: cart}
        """,
        {"limit": 40},
    ),
}


def load_lookup_collections(db) -> None:
    """The stores :data:`LOOKUP_QUERIES` probe, keyed the way
    :data:`LOOKUP_KEYS` can find (and miss) them."""
    from repro.relational.schema import Column, ColumnType, TableSchema

    keys = db.create_collection("lookup_keys")
    for document in LOOKUP_KEYS:
        keys.insert(dict(document))
    docs = db.create_collection("lookup_docs")
    for key in ("a", "b", "1"):
        docs.insert({"_key": key, "tag": f"doc-{key}"})
    db.create_table(TableSchema(
        "lookup_table",
        [Column("id", ColumnType.INTEGER, nullable=False), Column("tag")],
        primary_key="id",
    ))
    for number in (1, 2):
        db.table("lookup_table").insert({"id": number, "tag": f"row-{number}"})
    bucket = db.create_bucket("lookup_bucket")
    for key in ("a", "b", "1", "true"):
        bucket.put(key, f"kv-{key}")
    indexed = db.create_collection("lookup_index")
    plain = db.create_collection("lookup_plain")
    for number, value in enumerate(
        ["a", "a", 1, 1.0, "1", True, None, {"x": 1}, [1], 2], start=1
    ):
        for target in (indexed, plain):
            target.insert({"_key": f"e{number:02}", "k": value, "w": number})
    for target in (indexed, plain):
        target.insert({"_key": "e11", "w": 11})  # k missing: matches NULL
    indexed.create_index("k", kind="hash")
    graph = db.create_graph("lookup_graph")
    for key in ("a", "b", "c", "1", "2", "gone"):
        graph.add_vertex(key, {"name": key})
    for source, target, label in (
        ("a", "b", "knows"), ("a", "a", "knows"), ("a", "c", "likes"),
        ("b", "a", "knows"), ("c", "1", "knows"), ("1", "2", "knows"),
        ("2", "1", "likes"), ("a", "gone", "knows"),
    ):
        graph.add_edge(source, target, label)
    graph.remove_vertex("gone", cascade=False)
    seen = db.create_collection("lookup_seen")
    for document in LOOKUP_KEYS:
        seen.insert({"_key": f"s-{document['_key']}", "k": document["_key"]})


def load_write_collections(db) -> None:
    """``pairs_left`` x ``pairs_right``, and ``pairs_seen`` holding one
    document per right-hand value already, so every UPSERT updates."""
    left = db.create_collection("pairs_left")
    right = db.create_collection("pairs_right")
    seen = db.create_collection("pairs_seen")
    for value in range(3):
        left.insert({"_key": f"l{value}", "v": value})
        right.insert({"_key": f"r{value}", "v": value})
        seen.insert({"_key": f"s{value}", "k": value, "seen": True})
