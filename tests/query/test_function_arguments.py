"""A built-in called with the wrong number of arguments answers "bad
arity"; one called with an argument of the wrong type answers an error
that names the argument.  Both are FUNCTION errors, embedded and over the
wire alike."""

import pytest

from repro.cli import make_demo_db
from repro.client import ReproClient
from repro.errors import FunctionError
from repro.server import ReproServer


@pytest.fixture(scope="module")
def demo_db():
    return make_demo_db(scale_factor=1)


@pytest.fixture(scope="module")
def wire(demo_db):
    server = ReproServer(demo_db, port=0)
    server.start_in_thread()
    with ReproClient(port=server.port, sleep=None) as client:
        yield client
    server.stop()


@pytest.fixture(params=["embedded", "wire"])
def run(request, demo_db):
    if request.param == "embedded":
        return lambda text: demo_db.query(text).rows
    client = request.getfixturevalue("wire")
    return lambda text: client.query(text).rows


def _error(run, text) -> FunctionError:
    with pytest.raises(FunctionError) as info:
        run(text)
    assert info.value.code == "FUNCTION"
    return info.value


@pytest.mark.parametrize(
    "text, message",
    [
        ("RETURN ABS()", "ABS: bad arity (takes 1 argument, got 0)"),
        ("RETURN ROUND(1, 2, 3)", "ROUND: bad arity (takes 1 to 2 arguments, got 3)"),
        ("RETURN TRAVERSE('social', '1')", "TRAVERSE: bad arity (takes 4 to 6 arguments, got 2)"),
        ("RETURN NEIGHBORS('social')", "NEIGHBORS: bad arity (takes 2 to 4 arguments, got 1)"),
        ("RETURN DOCUMENT('customers')", "DOCUMENT: bad arity (takes 2 arguments, got 1)"),
    ],
)
def test_a_wrong_count_is_bad_arity(run, text, message):
    assert str(_error(run, text)) == message


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "RETURN TRAVERSE('social', [1], 1, 2)",
            "TRAVERSE: the start vertex must be a string key, got array",
        ),
        (
            "RETURN NEIGHBORS('social', 3)",
            "NEIGHBORS: the start vertex must be a string key, got number",
        ),
        (
            "RETURN EDGES('social', {v: '1'})",
            "EDGES: the start vertex must be a string key, got object",
        ),
        (
            "RETURN SHORTEST_PATH('social', '1', NULL)",
            "SHORTEST_PATH: the goal vertex must be a string key, got null",
        ),
        (
            "RETURN DOCUMENT('customers', [1])",
            "DOCUMENT: the key must be a scalar, got array",
        ),
    ],
)
def test_an_ill_typed_argument_is_named(run, text, message):
    error = _error(run, text)
    assert str(error) == message
    assert "arity" not in str(error)


def test_well_typed_calls_still_answer(run):
    assert run("RETURN NEIGHBORS('social', '1', 'inbound')") == run(
        "RETURN NEIGHBORS('social', '1', 'inbound', NULL)"
    )
    assert run("RETURN LENGTH(TRAVERSE('social', '1', 1, 1))") == [
        len(run("RETURN NEIGHBORS('social', '1')")[0])
    ]
