"""The remote shell (`repro-shell connect`) drives a live server."""

import io
import re
import sys

import pytest

from repro.cli import connect_main, make_demo_db, repl, run_statement
from repro.client import ReproClient
from repro.server import ReproServer


@pytest.fixture(scope="module")
def served():
    db = make_demo_db(scale_factor=1)
    server = ReproServer(db, port=0)
    server.start_in_thread()
    yield server
    server.stop()


@pytest.fixture()
def client(served):
    with ReproClient(port=served.port) as remote:
        yield remote


def _run(client, statement):
    out = io.StringIO()
    state = {"done": False}
    run_statement(client, statement, out, state)
    return out.getvalue(), state


class TestRemoteStatements:
    def test_query_prints_rows_and_summary(self, client):
        output, _state = _run(
            client, "FOR c IN customers SORT c.id LIMIT 2 RETURN c.name"
        )
        lines = output.strip().splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith("-- 2 row(s)")

    def test_error_prints_code(self, client):
        output, _state = _run(client, "FOR x IN nope RETURN x")
        assert output.startswith("error [UNKNOWN_COLLECTION]")

    def test_explain(self, client):
        output, _state = _run(client, ".explain FOR c IN customers RETURN c")
        assert "Scan" in output

    def test_txn_lifecycle(self, client):
        output, _state = _run(client, ".begin")
        assert "transaction" in output
        output, _state = _run(client, ".abort")
        assert "aborted" in output

    def test_set_limits(self, client):
        output, _state = _run(client, ".set max_rows 5")
        assert "max_rows=5" in output
        output, _state = _run(client, ".set max_rows off")
        assert "max_rows=None" in output

    def test_server_and_info(self, client):
        output, _state = _run(client, ".server")
        assert "session" in output
        output, _state = _run(client, ".info")
        assert "version" in output

    def test_replicas_on_plain_primary(self, client):
        output, _state = _run(client, ".replicas")
        assert "role primary" in output
        assert "no subscribed replicas" in output

    def test_quit_and_unknown(self, client):
        _output, state = _run(client, ".quit")
        assert state["done"]
        output, _state = _run(client, ".nonsense")
        assert "unknown command" in output

    def test_help(self, client):
        output, _state = _run(client, ".help")
        assert ".server" in output
        assert ".replicas" in output


class TestClientErrors:
    def test_attribute_error_inside_a_client_method_is_not_masked(self):
        class StandIn:
            def stats(self):
                return {}.uptime  # a bug inside the method

        out = io.StringIO()
        with pytest.raises(AttributeError, match="uptime"):
            run_statement(StandIn(), ".server", out, {"done": False})
        assert "not available" not in out.getvalue()


class TestRemoteRepl:
    def test_script_stream(self, client):
        source = io.StringIO("RETURN 1\n.quit\n")
        out = io.StringIO()
        repl(client, source, out)
        assert "1" in out.getvalue()


class TestConnectMain:
    def test_one_shot_command(self, served, capsys):
        exit_code = connect_main(
            ["--port", str(served.port), "-c", "RETURN 41 + 1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "42" in captured.out

    def test_file_script_keeps_semicolons_in_strings(self, served, tmp_path, capsys):
        script = tmp_path / "script.mmql"
        script.write_text('RETURN "a;b"; // one; two\nRETURN 2')
        exit_code = connect_main(["--port", str(served.port), "-f", str(script)])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "error" not in output
        assert output.splitlines()[::2] == ['"a;b"', "2"]

    def test_the_shell_runs_in_the_session_its_banner_names(
        self, served, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("EXPLAIN ANALYZE RETURN 1\n.quit\n")
        )
        assert connect_main(["--port", str(served.port)]) == 0
        output = capsys.readouterr().out
        (banner,) = re.findall(r"\(session (\d+)\) — \.help", output)
        (executed,) = re.findall(r"Server: .*\(session (\d+), request", output)
        assert banner == executed

    def test_unreachable_server(self, capsys):
        exit_code = connect_main(["--port", "1", "-c", "RETURN 1"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "cannot reach" in captured.err
