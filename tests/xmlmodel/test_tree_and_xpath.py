"""Unified tree + XPath tests, including the slide-76 cross-format join."""

import pytest

from repro.core.context import EngineContext
from repro.errors import DataModelError, PathError, UnknownCollectionError
from repro.xmlmodel import Node, TreeStore, XPath, evaluate, from_json, parse_xml

PRODUCT_XML = (
    '<product no="3424g">'
    "<name>The King's Speech</name>"
    "<author>Mark Logue</author>"
    "<author>Peter Conradi</author>"
    "</product>"
)

ORDER_JSON = {
    "Order_no": "0c6df508",
    "Orderlines": [
        {"Product_no": "2724f", "Product_Name": "Toy", "Price": 66},
        {"Product_no": "3424g", "Product_Name": "Book", "Price": 40},
    ],
}


class TestParseXml:
    def test_structure(self):
        doc = parse_xml(PRODUCT_XML)
        product = doc.children[0]
        assert product.name == "product"
        assert product.attributes["no"] == "3424g"
        assert len(product.child_elements("author")) == 2

    def test_text_content(self):
        doc = parse_xml("<a>hello <b>world</b> tail</a>")
        assert doc.children[0].string_value() == "hello world tail"

    def test_bad_xml(self):
        with pytest.raises(DataModelError):
            parse_xml("<unclosed>")

    def test_roundtrip(self):
        doc = parse_xml(PRODUCT_XML)
        again = parse_xml(doc.to_xml())
        assert again.children[0].attributes == {"no": "3424g"}
        assert (
            again.children[0].child_elements("name")[0].string_value()
            == "The King's Speech"
        )


class TestFromJson:
    def test_scalars_typed(self):
        doc = from_json({"n": 66, "b": True, "z": None, "s": "x"})
        assert doc.to_json() == {"n": 66, "b": True, "z": None, "s": "x"}

    def test_slide_57_example(self):
        value = {
            "name": "Oliver",
            "scores": [88, 67, 73],
            "isActive": True,
            "affiliation": None,
        }
        doc = from_json(value)
        assert doc.to_json() == value

    def test_dict_roundtrip(self):
        doc = from_json(ORDER_JSON)
        assert Node.from_dict(doc.to_dict()).to_json() == ORDER_JSON


class TestXPathOnXml:
    def test_child_steps(self):
        doc = parse_xml(PRODUCT_XML)
        assert XPath("/product/name").string_values(doc) == ["The King's Speech"]

    def test_attribute(self):
        doc = parse_xml(PRODUCT_XML)
        results = evaluate("/product/@no", doc)
        assert [r.value for r in results] == ["3424g"]

    def test_wildcard_and_position(self):
        doc = parse_xml(PRODUCT_XML)
        assert XPath("/product/author[2]").string_values(doc) == ["Peter Conradi"]
        assert len(evaluate("/product/*", doc)) == 3

    def test_descendant_axis(self):
        doc = parse_xml("<a><b><c>deep</c></b></a>")
        assert XPath("//c").string_values(doc) == ["deep"]

    def test_attribute_predicate(self):
        doc = parse_xml('<r><item k="a">1</item><item k="b">2</item></r>')
        assert XPath("/r/item[@k='b']").string_values(doc) == ["2"]

    def test_attribute_existence_predicate(self):
        doc = parse_xml('<r><item k="a">1</item><item>2</item></r>')
        assert XPath("/r/item[@k]").string_values(doc) == ["1"]

    def test_text_node_test(self):
        doc = parse_xml("<a>x<b>y</b></a>")
        assert [n.string_value() for n in evaluate("/a/text()", doc)] == ["x"]

    def test_parent_step(self):
        doc = parse_xml("<a><b><c/></b></a>")
        results = evaluate("//c/..", doc)
        assert [r.name for r in results] == ["b"]

    def test_bad_xpath(self):
        with pytest.raises(PathError):
            XPath("//[")
        with pytest.raises(PathError):
            XPath("")


class TestXPathOnJson:
    def test_name_steps_through_containers(self):
        doc = from_json(ORDER_JSON)
        assert XPath("/Order_no").string_values(doc) == ["0c6df508"]
        assert XPath("/Orderlines/Product_no").string_values(doc) == [
            "2724f",
            "3424g",
        ]

    def test_numeric_comparison(self):
        doc = from_json(ORDER_JSON)
        hits = XPath("/Orderlines[Price > 50]/Product_Name").string_values(doc)
        assert hits == ["Toy"]

    def test_position_over_array(self):
        doc = from_json(ORDER_JSON)
        # Positions count matching element nodes across the array.
        assert XPath("//Product_no[2]").string_values(doc) == ["3424g"]

    def test_existence_predicate(self):
        doc = from_json({"a": {"b": 1}, "c": {}})
        assert len(evaluate("/a[b]", doc)) == 1
        assert evaluate("/c[b]", doc) == []


class TestTreeStore:
    @pytest.fixture()
    def store(self):
        store = TreeStore(EngineContext(), "docs")
        store.insert_xml("/myXML1.xml", PRODUCT_XML)
        store.insert_json("/myJSON1.json", ORDER_JSON)
        return store

    def test_formats(self, store):
        assert store.format_of("/myXML1.xml") == "xml"
        assert store.format_of("/myJSON1.json") == "json"

    def test_missing_doc(self, store):
        with pytest.raises(UnknownCollectionError):
            store.doc("/nope")

    def test_xpath_per_document(self, store):
        assert store.xpath_values("/myXML1.xml", "/product/name") == [
            "The King's Speech"
        ]
        assert store.xpath_values("/myJSON1.json", "/Order_no") == ["0c6df508"]

    def test_slide_76_cross_format_join(self, store):
        """let $product := fn:doc('/myXML1.xml')/product
           let $order := fn:doc('/myJSON1.json')[Orderlines/Product_no = $product/@no]
           return $order/Order_no   =>   0c6df508"""
        product_no = store.xpath("/myXML1.xml", "/product/@no")[0].value
        order_doc = store.doc("/myJSON1.json")
        matches = XPath("/Orderlines/Product_no").string_values(order_doc)
        assert product_no in matches
        assert XPath("/Order_no").string_values(order_doc) == ["0c6df508"]

    def test_query_all(self, store):
        hits = list(store.query_all("//Product_no"))
        assert {uri for uri, _node in hits} == {"/myJSON1.json"}
        assert len(hits) == 2

    def test_delete(self, store):
        assert store.delete("/myXML1.xml")
        assert [frame["uri"] for frame in store.scan_cursor()] == [
            "/myJSON1.json"
        ]

    def test_transactional_insert(self, store):
        manager = store._context.transactions
        txn = manager.begin()
        store.insert_json("/tmp.json", {"a": 1}, txn=txn)
        assert not store.exists("/tmp.json")
        manager.commit(txn)
        assert store.exists("/tmp.json")
