"""UniBench-style multi-model data generator (slides 86-88).

"UniBench: a unified benchmark for multi-model data — an e-commerce
application involving multi-model data" (J. Lu, CIDR 2017).  The original
derives its data from LDBC; this generator (the DESIGN.md §2 substitution)
produces the same *entity and model mix* synthetically and deterministically
from a seed:

* **customers** — relational rows (id, name, city, credit_limit);
* **social network** — a graph over customers with clustered ``knows``
  edges (preferential attachment, so degree is skewed like a real network);
* **products** — documents with category and price;
* **vendors** — RDF triples (product → vendor → country);
* **orders** — JSON documents with nested order lines;
* **carts** — key/value pairs (customer id → latest order number);
* **feedback** — text reviews (for the full-text index).

``scale_factor`` 1 ≈ 100 customers / 50 products / 200 orders; everything
scales linearly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["UniBenchData", "generate", "load_into_multimodel", "load_into_polyglot"]

_FIRST_NAMES = [
    "Mary", "John", "Anne", "William", "Eva", "Matti", "Jana", "Petr",
    "Laura", "Tomas", "Nina", "Olli", "Karel", "Sofia", "Mikko", "Lenka",
]
_CITIES = ["Prague", "Helsinki", "Brno", "Espoo", "Tampere", "Ostrava"]
_CATEGORIES = ["Toy", "Book", "Computer", "Garden", "Music", "Sport"]
_VENDOR_COUNTRIES = ["FI", "CZ", "DE", "SE", "US"]
_REVIEW_GOOD = [
    "excellent quality fast delivery would buy again",
    "great product works perfectly highly recommended",
    "good value happy with this purchase",
]
_REVIEW_BAD = [
    "poor quality broke after one week disappointed",
    "terrible experience arrived damaged refund requested",
    "bad packaging slow shipping not recommended",
]


@dataclass
class UniBenchData:
    """One generated data set (all lists are deterministic in the seed)."""

    scale_factor: int
    seed: int
    customers: list[dict] = field(default_factory=list)
    knows_edges: list[tuple[str, str]] = field(default_factory=list)
    products: list[dict] = field(default_factory=list)
    vendor_triples: list[tuple[str, str, str]] = field(default_factory=list)
    orders: list[dict] = field(default_factory=list)
    carts: dict[str, str] = field(default_factory=dict)
    feedback: list[dict] = field(default_factory=list)

    def summary(self) -> dict[str, int]:
        return {
            "customers": len(self.customers),
            "knows_edges": len(self.knows_edges),
            "products": len(self.products),
            "vendor_triples": len(self.vendor_triples),
            "orders": len(self.orders),
            "carts": len(self.carts),
            "feedback": len(self.feedback),
        }


def generate(scale_factor: int = 1, seed: int = 42) -> UniBenchData:
    """Deterministic multi-model e-commerce data set."""
    if scale_factor < 1:
        raise ValueError("scale factor must be >= 1")
    rng = random.Random(seed)
    data = UniBenchData(scale_factor=scale_factor, seed=seed)

    customer_count = 100 * scale_factor
    product_count = 50 * scale_factor
    order_count = 200 * scale_factor
    vendor_count = max(5, 2 * scale_factor)

    # customers (relational)
    for index in range(1, customer_count + 1):
        data.customers.append(
            {
                "id": index,
                "name": f"{rng.choice(_FIRST_NAMES)}-{index}",
                "city": rng.choice(_CITIES),
                "credit_limit": rng.choice([1000, 2000, 3000, 5000, 8000]),
            }
        )

    # social graph (preferential attachment for a skewed degree profile)
    endpoints: list[int] = []
    for index in range(2, customer_count + 1):
        edges_here = rng.randint(1, 3)
        for _ in range(edges_here):
            if endpoints and rng.random() < 0.7:
                target = rng.choice(endpoints)
            else:
                target = rng.randint(1, index - 1)
            if target != index:
                data.knows_edges.append((str(index), str(target)))
                endpoints.extend([index, target])
    data.knows_edges = sorted(set(data.knows_edges))

    # products (documents)
    for index in range(1, product_count + 1):
        category = rng.choice(_CATEGORIES)
        data.products.append(
            {
                "_key": f"p{index:05d}",
                "product_no": f"p{index:05d}",
                "name": f"{category}-{index}",
                "category": category,
                "price": rng.randint(5, 200),
            }
        )

    # vendors (RDF)
    vendors = [f"vendor{v}" for v in range(1, vendor_count + 1)]
    for vendor in vendors:
        data.vendor_triples.append(
            (vendor, "locatedIn", rng.choice(_VENDOR_COUNTRIES))
        )
    for product in data.products:
        data.vendor_triples.append(
            (product["product_no"], "soldBy", rng.choice(vendors))
        )

    # orders (JSON documents) + carts (key/value)
    for index in range(1, order_count + 1):
        customer = rng.randint(1, customer_count)
        lines = []
        for _ in range(rng.randint(1, 4)):
            product = rng.choice(data.products)
            quantity = rng.randint(1, 3)
            lines.append(
                {
                    "Product_no": product["product_no"],
                    "Product_Name": product["name"],
                    "Price": product["price"],
                    "Quantity": quantity,
                }
            )
        order_no = f"o{index:06d}"
        data.orders.append(
            {
                "_key": order_no,
                "Order_no": order_no,
                "customer_id": customer,
                "total": sum(l["Price"] * l["Quantity"] for l in lines),
                "Orderlines": lines,
            }
        )
        data.carts[str(customer)] = order_no

    # feedback (text)
    for index, order in enumerate(data.orders):
        if index % 3 != 0:
            continue
        line = rng.choice(order["Orderlines"])
        positive = rng.random() < 0.7
        data.feedback.append(
            {
                "_key": f"f{index:06d}",
                "product_no": line["Product_no"],
                "customer_id": order["customer_id"],
                "positive": positive,
                "text": rng.choice(_REVIEW_GOOD if positive else _REVIEW_BAD),
            }
        )
    return data


def load_into_multimodel(
    db,
    data: UniBenchData,
    with_indexes: bool = True,
    keep: Optional[Callable[[str, Any], bool]] = None,
) -> None:
    """Populate a :class:`repro.MultiModelDB` with the data set.

    Creates: table ``customers``; graph ``social``; collections
    ``products``, ``orders``, ``feedback``; bucket ``cart``; triple store
    ``vendors``; and (optionally) the indexes the workloads exploit.

    *keep* is a placement predicate, ``keep(store, record) -> bool``: a
    row of ``customers``, ``products``, ``orders`` or ``feedback``, or a
    ``cart`` ``(key, value)`` pair, is loaded only when it returns true.
    The graph (whose vertices are the *whole* customer list) and the
    triple store are always loaded in full.  ``None`` keeps every row.
    """
    from repro.relational.schema import Column, ColumnType, TableSchema

    def kept(store: str, records: Iterable) -> Iterable:
        if keep is None:
            return records
        return [record for record in records if keep(store, record)]

    db.create_table(
        TableSchema(
            "customers",
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.STRING, nullable=False),
                Column("city", ColumnType.STRING),
                Column("credit_limit", ColumnType.INTEGER),
            ],
            primary_key="id",
        )
    )
    customers = db.table("customers")
    for row in kept("customers", data.customers):
        customers.insert(row)

    social = db.create_graph("social")
    for row in data.customers:
        social.add_vertex(str(row["id"]), {"name": row["name"]})
    for source, target in data.knows_edges:
        social.add_edge(source, target, label="knows")

    products = db.create_collection("products")
    for product in kept("products", data.products):
        products.insert(product)

    orders = db.create_collection("orders")
    for order in kept("orders", data.orders):
        orders.insert(order)

    cart = db.create_bucket("cart")
    for customer_id, order_no in kept("cart", data.carts.items()):
        cart.put(customer_id, order_no)

    feedback = db.create_collection("feedback")
    for review in kept("feedback", data.feedback):
        feedback.insert(review)

    vendors = db.create_triple_store("vendors")
    vendors.add_many(data.vendor_triples)

    if with_indexes:
        orders.create_index("Order_no", kind="hash")
        orders.create_index("customer_id", kind="hash")
        products.create_index("category", kind="hash")
        feedback.create_index("product_no", kind="hash")
        db.context.indexes.create_index(
            feedback.namespace, ("text",), kind="fulltext", name="feedback_text"
        )


def load_into_polyglot(app, data: UniBenchData) -> None:
    """Populate a :class:`repro.polyglot.PolyglotECommerce` deployment
    (meter reset afterwards so loading is free, like a warm system)."""
    for row in data.customers:
        app.add_customer(str(row["id"]), row["name"], row["credit_limit"])
        app.customers.update(str(row["id"]), {"city": row["city"]})
    for source, target in data.knows_edges:
        app.befriend(source, target)
    for order in data.orders:
        app.orders.insert(dict(order))
    for customer_id, order_no in data.carts.items():
        app.carts.put(customer_id, order_no)
    app.meter.reset()
