"""XML/JSON tree store — the MarkLogic pattern (slides 56-58, 76).

Documents are unified trees keyed by URI (``xdmp:document-insert``); both
``insert_xml`` and ``insert_json`` land in the same store and answer the
same XPath queries, enabling the slide-76 join between an XML ``<product>``
and a JSON order.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.context import BaseStore, EngineContext
from repro.core.cursor import IteratorScanCursor, ScanCursor
from repro.errors import UnknownCollectionError
from repro.txn.manager import Transaction
from repro.xmlmodel.tree import Node, from_json, parse_xml
from repro.xmlmodel.xpath import Result, XPath

__all__ = ["TreeStore"]


class TreeStore(BaseStore):
    """URI-keyed store of unified XML/JSON trees."""

    model = "xml"

    # -- document management ---------------------------------------------------

    def insert_xml(
        self, uri: str, text: str, txn: Optional[Transaction] = None
    ) -> None:
        """``xdmp:document-insert`` for an XML payload."""
        node = parse_xml(text)
        self._put(uri, {"format": "xml", "tree": node.to_dict()}, txn)

    def insert_json(
        self, uri: str, value: Any, txn: Optional[Transaction] = None
    ) -> None:
        """``xdmp.documentInsert`` for a JSON payload (slide 58)."""
        node = from_json(value)
        self._put(uri, {"format": "json", "tree": node.to_dict()}, txn)

    def doc(self, uri: str, txn: Optional[Transaction] = None) -> Node:
        """``fn:doc(uri)`` — the document node; raises when absent."""
        stored = self._raw_get(uri, txn)
        if stored is None:
            raise UnknownCollectionError(f"no document at URI {uri!r}")
        return Node.from_dict(stored["tree"])

    def exists(self, uri: str, txn: Optional[Transaction] = None) -> bool:
        return self.contains(uri, txn)

    def format_of(self, uri: str, txn: Optional[Transaction] = None) -> str:
        stored = self._raw_get(uri, txn)
        if stored is None:
            raise UnknownCollectionError(f"no document at URI {uri!r}")
        return stored["format"]

    def delete(self, uri: str, txn: Optional[Transaction] = None) -> bool:
        return self._delete_key(uri, txn)

    def scan_cursor(self, txn: Optional[Transaction] = None) -> ScanCursor:
        """Unified batched scan: ``{"uri": …, "format": …}`` frames in URI
        order (trees themselves stay behind :meth:`doc` — they are not
        frame-shaped)."""
        stored = sorted(self._raw_scan(txn), key=lambda pair: pair[0])
        return IteratorScanCursor(
            {"uri": uri, "format": record["format"]} for uri, record in stored
        )

    # -- queries ------------------------------------------------------------------

    def xpath(
        self, uri: str, expression: str, txn: Optional[Transaction] = None
    ) -> list[Result]:
        """Evaluate an XPath against one document."""
        return XPath(expression).evaluate(self.doc(uri, txn))

    def xpath_values(
        self, uri: str, expression: str, txn: Optional[Transaction] = None
    ) -> list[str]:
        return XPath(expression).string_values(self.doc(uri, txn))

    def query_all(
        self, expression: str, txn: Optional[Transaction] = None
    ) -> Iterator[tuple[str, Result]]:
        """Evaluate an XPath against every document: (uri, result) pairs —
        the collection-wide search MarkLogic's universal index serves."""
        compiled = XPath(expression)
        for frame in self.scan_cursor(txn=txn):
            uri = frame["uri"]
            for result in compiled.evaluate(self.doc(uri, txn)):
                yield uri, result
