"""Wire protocol unit tests: framing, payload shapes, error round-trips."""

import socket
import struct
import threading

import pytest

from repro.errors import (
    LexError,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ServerOverloadedError,
    UnknownCollectionError,
    code_of,
    code_registry,
    error_for_code,
)
from repro.server import protocol


def _socketpair():
    a, b = socket.socketpair()
    a.settimeout(5)
    b.settimeout(5)
    return a, b


class TestFraming:
    def test_round_trip(self):
        a, b = _socketpair()
        try:
            payload = {"id": 7, "op": "query_open", "params": {"text": "RETURN 1"}}
            protocol.write_frame(a, payload)
            assert protocol.read_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_sequence(self):
        a, b = _socketpair()
        try:
            for index in range(5):
                protocol.write_frame(a, {"id": index})
            for index in range(5):
                assert protocol.read_frame(b) == {"id": index}
        finally:
            a.close()
            b.close()

    def test_non_json_values_serialize_with_default_str(self):
        import datetime

        body = protocol.encode_frame(
            {"when": datetime.date(2026, 8, 6)}
        )
        (length,) = struct.unpack(">I", body[:4])
        assert protocol.decode_payload(body[4:]) == {"when": "2026-08-06"}
        assert length == len(body) - 4

    def test_clean_eof_returns_none(self):
        a, b = _socketpair()
        a.close()
        try:
            assert protocol.read_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises_protocol_error(self):
        a, b = _socketpair()
        try:
            # Announce 100 bytes, deliver 3, then die.
            a.sendall(struct.pack(">I", 100) + b"abc")
            a.close()
            with pytest.raises(ProtocolError):
                protocol.read_frame(b)
        finally:
            b.close()

    def test_oversized_announcement_rejected(self):
        a, b = _socketpair()
        try:
            a.sendall(struct.pack(">I", 2 ** 31))
            with pytest.raises(ProtocolError, match="corrupt length prefix"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_outbound_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            # One giant string blows the frame budget before any I/O.
            protocol.encode_frame({"x": "y" * (protocol.MAX_FRAME_BYTES + 1)})

    def test_payload_must_be_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_payload(b"[1, 2, 3]")
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_payload(b"{nope")

    def test_concurrent_interleaved_writers_keep_frames_intact(self):
        """sendall under the protocol: frames from two writer threads never
        interleave bytes (each write_frame is one sendall call)."""
        a, b = _socketpair()
        received = []
        errors = []

        def reader():
            try:
                while True:
                    frame = protocol.read_frame(b)
                    if frame is None:
                        break
                    received.append(frame)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        lock = threading.Lock()

        def writer(tag):
            for index in range(50):
                with lock:
                    protocol.write_frame(a, {"tag": tag, "n": index})

        writers = [threading.Thread(target=writer, args=(t,)) for t in "xy"]
        for w in writers:
            w.start()
        for w in writers:
            w.join()
        a.close()
        thread.join(timeout=5)
        b.close()
        assert not errors
        assert len(received) == 100


class TestErrorRoundTrip:
    def test_typed_error_preserves_class_code_and_message(self):
        original = UnknownCollectionError("no table named 'ghosts'")
        frame = protocol.error_response(3, original)
        assert frame["ok"] is False
        assert frame["error"]["code"] == "UNKNOWN_COLLECTION"
        with pytest.raises(UnknownCollectionError) as info:
            protocol.raise_wire_error(frame["error"])
        assert str(info.value) == "no table named 'ghosts'"
        assert info.value.code == "UNKNOWN_COLLECTION"

    def test_details_ship_and_restore(self):
        original = QueryTimeoutError("too slow", elapsed=1.5, limit=1.0)
        frame = protocol.error_response(None, original)
        assert frame["error"]["details"] == {"elapsed": 1.5, "limit": 1.0}
        with pytest.raises(QueryTimeoutError) as info:
            protocol.raise_wire_error(frame["error"])
        assert info.value.elapsed == 1.5
        assert info.value.limit == 1.0

    def test_decorated_message_not_double_applied(self):
        original = LexError("bad character", line=2, column=9)
        frame = protocol.error_response(1, original)
        with pytest.raises(LexError) as info:
            protocol.raise_wire_error(frame["error"])
        # LexError.__init__ appends "(line …)": reconstruction must not
        # run it again.
        assert str(info.value) == str(original)
        assert info.value.line == 2
        assert info.value.column == 9

    def test_non_engine_exception_becomes_internal(self):
        frame = protocol.error_response(9, ZeroDivisionError("division by zero"))
        assert frame["error"]["code"] == "INTERNAL"
        assert "ZeroDivisionError" in frame["error"]["message"]
        with pytest.raises(ReproError):
            protocol.raise_wire_error(frame["error"])

    def test_unknown_code_degrades_to_server_error(self):
        error = error_for_code("CODE_FROM_THE_FUTURE", "what is this")
        assert error.code == "CODE_FROM_THE_FUTURE"
        assert str(error) == "what is this"
        assert isinstance(error, ReproError)

    def test_code_of(self):
        assert code_of(ServerOverloadedError("busy")) == "SERVER_OVERLOADED"
        assert code_of(ValueError("x")) == "INTERNAL"

    def test_registry_codes_are_unique(self):
        import repro.fault.retry  # noqa: F401  — registers its subclass

        registry = code_registry()
        assert registry["SERVER_OVERLOADED"] is ServerOverloadedError
        classes = registry.values()
        assert len(set(classes)) == len(registry)

    def test_every_error_class_declares_its_own_code(self):
        import repro.errors as errors_module

        own_codes = {}
        for name in dir(errors_module):
            cls = getattr(errors_module, name)
            if (
                isinstance(cls, type)
                and issubclass(cls, errors_module.ReproError)
            ):
                assert "code" in cls.__dict__, f"{name} inherits its code"
                assert cls.__dict__["code"], f"{name} has an empty code"
                assert cls.__dict__["code"] not in own_codes, (
                    f"{name} duplicates {own_codes[cls.__dict__['code']]}"
                )
                own_codes[cls.__dict__["code"]] = name
