"""MMQL shell tests (stream-driven, no TTY)."""

import io
import json

import pytest

from repro import MultiModelDB
from repro.cli import main, make_demo_db, repl, run_statement, split_script


@pytest.fixture(scope="module")
def demo_db():
    return make_demo_db(scale_factor=1)


def _run(db, statement):
    out = io.StringIO()
    state = {"done": False}
    run_statement(db, statement, out, state)
    return out.getvalue(), state


class TestRunStatement:
    def test_query_prints_json_rows(self, demo_db):
        output, _state = _run(
            demo_db, "FOR c IN customers SORT c.id LIMIT 2 RETURN c.name"
        )
        lines = output.strip().splitlines()
        assert len(lines) == 3  # 2 rows + summary
        assert json.loads(lines[0])
        assert lines[-1].startswith("-- 2 row(s)")

    def test_error_reported_not_raised(self, demo_db):
        output, _state = _run(demo_db, "FOR broken FILTER")
        assert output.startswith("error [PARSE]:")

    def test_catalog(self, demo_db):
        output, _state = _run(demo_db, ".catalog")
        assert "customers" in output
        assert "table" in output

    def test_explain(self, demo_db):
        output, _state = _run(
            demo_db, ".explain FOR o IN orders FILTER o.Order_no == 'x' RETURN o"
        )
        assert "IndexScan" in output

    def test_explain_usage(self, demo_db):
        output, _state = _run(demo_db, ".explain")
        assert "usage" in output

    def test_stats_lifecycle(self, demo_db):
        out = io.StringIO()
        state = {"done": False}
        run_statement(demo_db, ".stats", out, state)
        assert "no query" in out.getvalue()
        run_statement(demo_db, "RETURN 1", out, state)
        out2 = io.StringIO()
        run_statement(demo_db, ".stats", out2, state)
        assert "rows_returned: 1" in out2.getvalue()

    def test_advise(self, demo_db):
        output, _state = _run(
            demo_db,
            ".advise FOR c IN customers FILTER c.city == 'Prague' RETURN c",
        )
        assert "customers(city)" in output

    def test_advise_indexed_query(self, demo_db):
        output, _state = _run(
            demo_db,
            ".advise FOR o IN orders FILTER o.Order_no == 'x' RETURN o",
        )
        assert "no new indexes" in output

    def test_advise_bare_reads_runtime_log(self, demo_db):
        # Bare .advise reads the optimizer's near-miss suggestion log.
        output, _state = _run(demo_db, ".advise")
        assert "no suggestions recorded yet" in output
        # A scan+filter query with no serving index records a near miss...
        _run(
            demo_db,
            "FOR c IN customers FILTER c.city == 'Prague' RETURN c",
        )
        # ...which bare .advise then surfaces.
        output, _state = _run(demo_db, ".advise")
        assert "customers(city)" in output

    def test_rules_list_and_toggle(self, demo_db):
        output, _state = _run(demo_db, ".rules")
        assert "hash_join" in output and "decorrelate_subquery" in output
        output, _state = _run(demo_db, ".rules off hash_join")
        assert "hash_join -> off" in output
        assert "hash_join" in demo_db.optimizer_rules.disabled
        output, _state = _run(demo_db, ".rules on hash_join")
        assert "hash_join" not in demo_db.optimizer_rules.disabled
        output, _state = _run(demo_db, ".rules off nonsense")
        assert "error" in output

    def test_unknown_command(self, demo_db):
        output, _state = _run(demo_db, ".bogus")
        assert "unknown command" in output

    def test_quit_sets_done(self, demo_db):
        _output, state = _run(demo_db, ".quit")
        assert state["done"] is True

    def test_help(self, demo_db):
        output, _state = _run(demo_db, ".help")
        assert ".catalog" in output

    def test_blank_is_noop(self, demo_db):
        output, _state = _run(demo_db, "   ")
        assert output == ""


class TestFaultsCommand:
    @pytest.fixture(autouse=True)
    def _disarm_everything(self):
        from repro.fault.registry import FAILPOINTS

        yield
        FAILPOINTS.disarm_all()

    def test_listing_shows_engine_sites(self, demo_db):
        output, _state = _run(demo_db, ".faults")
        assert "wal.append.write" in output
        assert "txn.commit.mid_publish" in output
        assert "disarmed" in output

    def test_arm_and_disarm_roundtrip(self, demo_db):
        output, _state = _run(demo_db, ".faults arm wal.append.write once torn")
        assert "armed" in output
        output, _state = _run(demo_db, ".faults")
        assert "armed once effect=torn" in output
        output, _state = _run(demo_db, ".faults disarm wal.append.write")
        assert "disarmed" in output

    def test_arm_with_seed(self, demo_db):
        output, _state = _run(
            demo_db,
            ".faults arm polyglot.place_order.after_cart prob:0.5 error seed 7",
        )
        assert "seed=7" in output

    def test_armed_failpoint_affects_queries(self, demo_db):
        _run(demo_db, ".faults arm log.append every:1 error")
        output, _state = _run(
            demo_db, "INSERT {_key: 'fault-probe'} INTO orders"
        )
        assert output.startswith("error [FAULT_INJECTED]:")
        _run(demo_db, ".faults disarm all")
        output, _state = _run(demo_db, "RETURN 1")
        assert "error" not in output

    def test_unknown_site_reported(self, demo_db):
        output, _state = _run(demo_db, ".faults arm no.such.site once")
        assert "unknown failpoint" in output
        output, _state = _run(demo_db, ".faults disarm no.such.site")
        assert "unknown failpoint" in output

    def test_bad_trigger_reported(self, demo_db):
        output, _state = _run(demo_db, ".faults arm wal.append.write bogus")
        assert output.startswith("error:")

    def test_usage_on_nonsense(self, demo_db):
        output, _state = _run(demo_db, ".faults frobnicate")
        assert "usage" in output

    def test_disarm_all(self, demo_db):
        _run(demo_db, ".faults arm wal.append.write once")
        output, _state = _run(demo_db, ".faults disarm all")
        assert "all failpoints disarmed" in output


class TestRepl:
    def test_scripted_session(self, demo_db):
        source = io.StringIO(
            "RETURN 1 + 1\n"
            ".catalog\n"
            ".quit\n"
            "RETURN 99\n"   # after .quit: must not run
        )
        out = io.StringIO()
        repl(demo_db, source, out)
        text = out.getvalue()
        assert "2" in text
        assert "customers" in text
        assert "99" not in text

    def test_multiline_continuation(self, demo_db):
        source = io.StringIO(
            "FOR c IN customers \\\n  FILTER c.id == 1 \\\n  RETURN c.name\n"
        )
        out = io.StringIO()
        repl(demo_db, source, out)
        assert "-- 1 row(s)" in out.getvalue()

    def test_eof_terminates(self):
        db = MultiModelDB()
        out = io.StringIO()
        repl(db, io.StringIO(""), out)
        assert out.getvalue() == ""


SCRIPT = 'RETURN "a;b"; // a comment; with a semicolon\nRETURN \'c;d\'; /* ; */ RETURN 2'


class TestScripts:
    def test_split_only_outside_strings_and_comments(self):
        assert [part.strip() for part in split_script(SCRIPT)] == [
            'RETURN "a;b"',
            "// a comment; with a semicolon\nRETURN 'c;d'",
            "/* ; */ RETURN 2",
        ]

    def test_file_script_keeps_semicolons_in_strings(self, tmp_path, capsys):
        script = tmp_path / "script.mmql"
        script.write_text(SCRIPT)
        assert main(["-f", str(script)]) == 0
        output = capsys.readouterr().out
        assert "error" not in output
        assert output.splitlines()[::2] == ['"a;b"', '"c;d"', "2"]

