"""Byte-level wire-protocol conformance suite.

Every test talks to a live :class:`repro.server.ServerThread` through
:mod:`tests.wireclient` — a raw-socket client that frames and decodes
each message independently of the production codec, so an encode bug in
``repro.server.protocol`` cannot cancel out against the shipped client.

Coverage map (the ISSUE's golden-message list):

* startup handshake and AuthenticationOk greeting sequence,
* SSLRequest / CancelRequest special startup codes,
* simple query (RowDescription field layout, DataRow NULLs,
  CommandComplete tags),
* empty query, multi-statement scripts and stop-at-first-error,
* ErrorResponse diagnostic fields with taxonomy SQLSTATEs,
* NoticeResponse ordering relative to results,
* ReadyForQuery transaction-status bytes across BEGIN/COMMIT/ROLLBACK,
* Terminate, malformed frames (bad lengths, unknown types, bad
  versions) and mid-message client disconnects,
* the loop-answered STATS query,
* pure-codec golden byte strings (no server at all).
"""

from __future__ import annotations

import socket
import struct

import pytest

from repro.server import ServerThread
from repro.sql import Database
from repro.sql import ast as A
from repro.sql.parser import parse_statement
from wireclient import (RawWireClient, decode_data_row, decode_fields,
                        decode_row_description, query_bytes, startup_bytes,
                        terminate_bytes)


@pytest.fixture(scope="module")
def server():
    """One shared server over a small fixture schema.

    Tests that mutate state create (and drop) their own tables; the
    ``items`` table is read-only shared fixture data.
    """
    db = Database(seed=0)
    db.execute("CREATE TABLE items(id int, name text)")
    db.execute("INSERT INTO items VALUES (1, 'anvil'), (2, 'rope'), "
               "(3, NULL)")
    with ServerThread(db) as address:
        yield address


@pytest.fixture()
def client(server):
    """A handshaken client, closed after the test."""
    c = RawWireClient(*server)
    c.handshake()
    yield c
    c.close()


def types_of(messages):
    return [t for t, _ in messages]


# ---------------------------------------------------------------------------
# Startup
# ---------------------------------------------------------------------------

class TestStartup:
    def test_greeting_sequence(self, server):
        with RawWireClient(*server) as c:
            messages = c.handshake()
        # AuthenticationOk, ParameterStatus x3, BackendKeyData,
        # ReadyForQuery — in exactly that order.
        assert types_of(messages) == [b"R", b"S", b"S", b"S", b"K", b"Z"]

    def test_authentication_ok_payload(self, server):
        with RawWireClient(*server) as c:
            messages = c.handshake()
        type_byte, payload = messages[0]
        assert type_byte == b"R"
        assert payload == struct.pack("!I", 0)  # trust auth, nothing else

    def test_parameter_status_pairs(self, server):
        with RawWireClient(*server) as c:
            messages = c.handshake()
        params = {}
        for type_byte, payload in messages:
            if type_byte == b"S":
                name, value, _ = payload.split(b"\x00")
                params[name.decode()] = value.decode()
        assert params["client_encoding"] == "UTF8"
        assert "server_version" in params
        assert "integer_datetimes" in params

    def test_backend_key_data_shape(self, server):
        with RawWireClient(*server) as c:
            messages = c.handshake()
        payload = dict(messages)[b"K"]
        assert len(payload) == 8  # int32 pid + int32 secret

    def test_ready_for_query_idle(self, server):
        with RawWireClient(*server) as c:
            messages = c.handshake()
        assert messages[-1] == (b"Z", b"I")

    def test_ssl_request_answered_with_n(self, server):
        with RawWireClient(*server) as c:
            c.send_raw(struct.pack("!II", 8, 80877103))
            assert c.recv_exact(1) == b"N"
            # The connection stays usable: a normal startup follows.
            messages = c.handshake()
            assert messages[-1] == (b"Z", b"I")

    def test_cancel_request_is_accepted_and_dropped(self, server):
        with RawWireClient(*server) as c:
            c.send_raw(struct.pack("!IIII", 16, 80877102, 1234, 5678))
            assert c.eof()

    def test_unsupported_protocol_version(self, server):
        with RawWireClient(*server) as c:
            c.send_raw(startup_bytes(version=0x00020000))  # protocol 2.0
            type_byte, payload = c.read_message()
            assert type_byte == b"E"
            fields = decode_fields(payload)
            assert fields["S"] == "FATAL"
            assert fields["C"] == "08P01"
            assert c.eof()

    def test_bad_startup_length(self, server):
        with RawWireClient(*server) as c:
            c.send_raw(struct.pack("!I", 3))  # below minimum frame size
            type_byte, payload = c.read_message()
            assert type_byte == b"E"
            assert decode_fields(payload)["C"] == "08P01"
            assert c.eof()


# ---------------------------------------------------------------------------
# Simple query
# ---------------------------------------------------------------------------

class TestSimpleQuery:
    def test_select_message_sequence(self, client):
        messages = client.query("SELECT id, name FROM items ORDER BY id")
        assert types_of(messages) == [b"T", b"D", b"D", b"D", b"C", b"Z"]

    def test_row_description_field_layout(self, client):
        messages = client.query("SELECT id, name FROM items ORDER BY id")
        columns = decode_row_description(dict(messages)[b"T"])
        assert [c["name"] for c in columns] == ["id", "name"]
        for column in columns:
            assert column["type_oid"] == 25   # everything is text
            assert column["typlen"] == -1     # varlena
            assert column["typmod"] == -1
            assert column["format"] == 0      # text format
            assert column["table_oid"] == 0
            assert column["attnum"] == 0

    def test_data_rows_and_null_encoding(self, client):
        messages = client.query("SELECT id, name FROM items ORDER BY id")
        rows = [decode_data_row(payload) for t, payload in messages
                if t == b"D"]
        # Values travel as text; SQL NULL is the -1 length sentinel,
        # decoded as None — distinguishable from the string 'NULL'.
        assert rows == [["1", "anvil"], ["2", "rope"], ["3", None]]

    def test_command_complete_tag(self, client):
        messages = client.query("SELECT id FROM items")
        tags = [payload.rstrip(b"\x00").decode() for t, payload in messages
                if t == b"C"]
        assert tags == ["SELECT 3"]

    def test_empty_query_response(self, client):
        messages = client.query("")
        assert messages == [(b"I", b""), (b"Z", b"I")]

    def test_whitespace_only_query_is_empty(self, client):
        messages = client.query("   \n\t  ")
        assert types_of(messages) == [b"I", b"Z"]

    def test_stats_is_answered_inline(self, client):
        client.query("SELECT 1")  # ensure at least one query is counted
        messages = client.query("STATS")
        assert types_of(messages)[0] == b"T"
        columns = decode_row_description(messages[0][1])
        assert [c["name"] for c in columns] == ["metric"]
        lines = [decode_data_row(payload)[0] for t, payload in messages
                 if t == b"D"]
        assert any(line.startswith("server_active_connections ")
                   for line in lines)
        assert any(line.startswith("server_query_seconds_count ")
                   for line in lines)
        tag = [payload.rstrip(b"\x00").decode() for t, payload in messages
               if t == b"C"]
        assert tag == [f"STATS {len(lines)}"]


# ---------------------------------------------------------------------------
# Multi-statement scripts
# ---------------------------------------------------------------------------

class TestMultiStatement:
    def test_each_statement_gets_a_result(self, client):
        client.query("CREATE TABLE ms(x int)")
        try:
            messages = client.query(
                "INSERT INTO ms VALUES (1); INSERT INTO ms VALUES (2); "
                "SELECT count(*) FROM ms")
            tags = [payload.rstrip(b"\x00").decode()
                    for t, payload in messages if t == b"C"]
            assert tags == ["INSERT 0 1", "INSERT 0 1", "SELECT 1"]
            rows = [decode_data_row(payload) for t, payload in messages
                    if t == b"D"]
            assert rows == [["2"]]
            assert messages[-1] == (b"Z", b"I")
        finally:
            client.query("DROP TABLE ms")

    def test_script_stops_at_first_error(self, client):
        client.query("CREATE TABLE se(x int)")
        try:
            messages = client.query(
                "INSERT INTO se VALUES (1); "
                "SELECT * FROM missing_table; "
                "INSERT INTO se VALUES (2)")
            assert types_of(messages) == [b"C", b"E", b"Z"]
            # The statement after the error never ran.
            count = client.query("SELECT count(*) FROM se")
            assert decode_data_row(dict(count)[b"D"]) == ["1"]
        finally:
            client.query("DROP TABLE se")

    def test_query_payload_is_the_scope_of_set_local(self, client):
        """Embedded = served: a Query message is a script exactly as
        ``Connection.execute_script`` is, so ``SET LOCAL`` holds until the
        end of the payload and is gone in the next one, without the
        "no effect outside a script" warning."""
        script = "SET LOCAL enable_topn = off; SHOW enable_topn"
        embedded = Database().connect()
        assert embedded.execute_script(script)[-1].rows == [("off",)]
        assert embedded.notices == []
        messages = client.query(script)
        assert types_of(messages) == [b"C", b"T", b"D", b"C", b"Z"]
        assert decode_data_row(dict(messages)[b"D"]) == ["off"]
        after = client.query("SHOW enable_topn")
        assert decode_data_row(dict(after)[b"D"]) == ["on"]
        assert embedded.execute("SHOW enable_topn").rows == [("on",)]


# ---------------------------------------------------------------------------
# Errors and notices
# ---------------------------------------------------------------------------

class TestErrors:
    def test_parse_error_fields(self, client):
        messages = client.query("SELEC 1")
        assert types_of(messages) == [b"E", b"Z"]
        fields = decode_fields(messages[0][1])
        assert fields["S"] == "ERROR"
        assert fields["V"] == "ERROR"
        assert fields["C"] == "42601"  # syntax_error
        assert fields["M"]

    @pytest.mark.parametrize("sql, sqlstate", [
        ("SELECT * FROM missing_table", "42704"),  # name-resolution label
        # Ill-typed operands are classified by the expression kernels,
        # never Python's TypeError / ValueError surfacing as XX000.
        ("SELECT 5 LIKE 'a'", "42804"),
        ("SELECT name LIKE 1 FROM items", "42804"),
        ("SELECT substr(name, 'q') FROM items", "22000"),
    ])
    def test_error_sqlstates(self, client, sql, sqlstate):
        messages = client.query(sql)
        fields = decode_fields(messages[0][1])
        assert fields["C"] == sqlstate

    def test_error_does_not_kill_the_connection(self, client):
        client.query("SELEC 1")
        messages = client.query("SELECT 1")
        assert types_of(messages) == [b"T", b"D", b"C", b"Z"]

    def test_notice_precedes_result(self, client):
        client.query("""CREATE FUNCTION noisy(n int) RETURNS int AS $$
            BEGIN RAISE NOTICE 'n is %', n; RETURN n; END;
            $$ LANGUAGE plpgsql""")
        try:
            messages = client.query("SELECT noisy(7)")
            assert types_of(messages) == [b"N", b"T", b"D", b"C", b"Z"]
            fields = decode_fields(messages[0][1])
            assert fields["S"] == "NOTICE"
            assert "n is 7" in fields["M"]
            assert decode_data_row(dict(messages)[b"D"]) == ["7"]
        finally:
            client.query("DROP FUNCTION noisy")


# ---------------------------------------------------------------------------
# Transaction status byte
# ---------------------------------------------------------------------------

class TestTransactionStatus:
    def test_begin_commit_cycle(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            assert c.query("BEGIN")[-1] == (b"Z", b"T")
            assert c.query("SELECT 1")[-1] == (b"Z", b"T")
            assert c.query("COMMIT")[-1] == (b"Z", b"I")

    def test_rollback_returns_to_idle(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            c.query("BEGIN")
            assert c.query("ROLLBACK")[-1] == (b"Z", b"I")

    def test_transaction_spans_round_trips(self, server, client):
        """An open transaction's writes are invisible to another wire
        session until COMMIT — sessions are really separate."""
        with RawWireClient(*server) as c:
            c.handshake()
            c.query("CREATE TABLE txv(x int)")
            try:
                c.query("BEGIN")
                c.query("INSERT INTO txv VALUES (1)")
                other = client.query("SELECT count(*) FROM txv")
                assert decode_data_row(dict(other)[b"D"]) == ["0"]
                c.query("COMMIT")
                other = client.query("SELECT count(*) FROM txv")
                assert decode_data_row(dict(other)[b"D"]) == ["1"]
            finally:
                c.query("DROP TABLE txv")


# ---------------------------------------------------------------------------
# Terminate, malformed frames, disconnects
# ---------------------------------------------------------------------------

class TestTermination:
    def test_terminate_closes_cleanly(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            c.send_raw(terminate_bytes())
            assert c.eof()

    def test_malformed_length_below_header(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            c.send_raw(b"Q" + struct.pack("!I", 3))  # length < 4
            type_byte, payload = c.read_message()
            assert type_byte == b"E"
            fields = decode_fields(payload)
            assert fields["S"] == "FATAL"
            assert fields["C"] == "08P01"
            assert c.eof()

    def test_oversized_frame_rejected_without_buffering(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            # Announce a 64 MiB frame; the server must refuse from the
            # header alone instead of allocating for it.
            c.send_raw(b"Q" + struct.pack("!I", 64 * 1024 * 1024))
            type_byte, payload = c.read_message()
            assert decode_fields(payload)["C"] == "08P01"
            assert c.eof()

    def test_unknown_message_type(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            # Parse ('P') belongs to the extended protocol we don't speak.
            c.send_raw(b"P" + struct.pack("!I", 4))
            type_byte, payload = c.read_message()
            assert type_byte == b"E"
            assert decode_fields(payload)["C"] == "08P01"
            assert c.eof()

    def test_disconnect_mid_startup(self, server):
        c = RawWireClient(*server)
        c.send_raw(struct.pack("!I", 100))  # promise 100 bytes, send 4
        c.close()
        self._server_still_alive(server)

    def test_disconnect_mid_query_frame(self, server):
        c = RawWireClient(*server)
        c.handshake()
        c.send_raw(b"Q" + struct.pack("!I", 100) + b"SELECT")  # truncated
        c.close()
        self._server_still_alive(server)

    def test_disconnect_with_query_in_flight(self, server):
        c = RawWireClient(*server)
        c.handshake()
        c.send_raw(query_bytes("SELECT count(*) FROM items"))
        c.close()  # walk away without reading the response
        self._server_still_alive(server)

    @staticmethod
    def _server_still_alive(server):
        """The abandoned connection must not have wedged the server."""
        with RawWireClient(*server) as probe:
            probe.handshake()
            messages = probe.query("SELECT 1")
            assert types_of(messages) == [b"T", b"D", b"C", b"Z"]
            assert decode_data_row(dict(messages)[b"D"]) == ["1"]


# ---------------------------------------------------------------------------
# Split delivery: the framing state machine must not care about packets
# ---------------------------------------------------------------------------

class TestSplitDelivery:
    def test_query_dribbled_one_byte_at_a_time(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            frame = query_bytes("SELECT 2 + 2")
            for i in range(len(frame)):
                c.send_raw(frame[i:i + 1])
            messages = c.read_until_ready()
            assert decode_data_row(dict(messages)[b"D"]) == ["4"]

    def test_two_queries_in_one_packet(self, server):
        """A pipelining client gets responses strictly in order."""
        with RawWireClient(*server) as c:
            c.handshake()
            c.send_raw(query_bytes("SELECT 1") + query_bytes("SELECT 2"))
            first = c.read_until_ready()
            second = c.read_until_ready()
            assert decode_data_row(dict(first)[b"D"]) == ["1"]
            assert decode_data_row(dict(second)[b"D"]) == ["2"]

    def test_startup_and_query_in_one_packet(self, server):
        with RawWireClient(*server) as c:
            c.send_raw(startup_bytes() + query_bytes("SELECT 3"))
            greeting = c.read_until_ready()
            assert types_of(greeting)[-1] == b"Z"
            result = c.read_until_ready()
            assert decode_data_row(dict(result)[b"D"]) == ["3"]


# ---------------------------------------------------------------------------
# Prepared statements over the wire (EXECUTE fast path included)
# ---------------------------------------------------------------------------

class TestPreparedOverWire:
    def test_prepare_execute_deallocate(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            tags = []
            for sql in ("PREPARE pick(int) AS "
                        "SELECT name FROM items WHERE id = $1",
                        "EXECUTE pick(2)",
                        "DEALLOCATE pick"):
                messages = c.query(sql)
                tags.extend(payload.rstrip(b"\x00").decode()
                            for t, payload in messages if t == b"C")
                if sql.startswith("EXECUTE"):
                    assert decode_data_row(dict(messages)[b"D"]) == ["rope"]
            assert tags == ["PREPARE", "SELECT 1", "DEALLOCATE"]

    def test_execute_unknown_statement(self, server):
        with RawWireClient(*server) as c:
            c.handshake()
            messages = c.query("EXECUTE nope(1)")
            assert types_of(messages) == [b"E", b"Z"]
            assert decode_fields(messages[0][1])["C"] == "42P01"

    def test_fast_path_and_parser_agree(self, server):
        """`EXECUTE ps(2)` (micro-parsed) and `EXECUTE ps(1 + 1)` (full
        parser fallback) must return identical rows."""
        with RawWireClient(*server) as c:
            c.handshake()
            c.query("PREPARE agree(int) AS "
                    "SELECT id, name FROM items WHERE id = $1")
            fast = c.query("EXECUTE agree(2)")
            slow = c.query("EXECUTE agree(1 + 1)")
            rows = lambda ms: [decode_data_row(pl) for t, pl in ms
                               if t == b"D"]
            assert rows(fast) == rows(slow) == [["2", "rope"]]
            c.query("DEALLOCATE agree")

    def test_prepared_statements_are_per_session(self, server):
        with RawWireClient(*server) as c1, RawWireClient(*server) as c2:
            c1.handshake()
            c2.handshake()
            c1.query("PREPARE mine(int) AS SELECT $1")
            messages = c2.query("EXECUTE mine(1)")
            assert decode_fields(messages[0][1])["C"] == "42P01"
            c1.query("DEALLOCATE mine")


# ---------------------------------------------------------------------------
# Command tags: one per kind of statement
# ---------------------------------------------------------------------------

#: One session's worth of statements, in an order that runs, with the tag
#: each is answered by; between them they are every row of the statement
#: table (the test checks that, so a new kind needs a line here).
TAGGED = [
    ("CREATE TYPE tagpair AS (a int, b int)", "CREATE TYPE"),
    ("CREATE TABLE tags(k int, v text)", "CREATE TABLE"),
    ("CREATE INDEX tags_k ON tags(k)", "CREATE INDEX"),
    ("CREATE FUNCTION tagfn(n int) RETURNS int AS 'SELECT n + 1' "
     "LANGUAGE sql", "CREATE FUNCTION"),
    ("INSERT INTO tags VALUES (1, 'a'), (2, 'b'), (3, 'c')", "INSERT 0 3"),
    ("UPDATE tags SET v = 'z' WHERE k > 1", "UPDATE 2"),
    ("DELETE FROM tags WHERE k = 3", "DELETE 1"),
    ("SELECT k FROM tags", "SELECT 2"),
    ("VALUES (1), (2), (3)", "SELECT 3"),
    ("PREPARE tagsel(int) AS SELECT v FROM tags WHERE k >= $1", "PREPARE"),
    ("PREPARE tagdel(int) AS DELETE FROM tags WHERE k = $1", "PREPARE"),
    ("EXECUTE tagsel(1)", "SELECT 2"),            # the literal fast path
    ("EXECUTE tagsel(0 + 1)", "SELECT 2"),        # the full parser
    ("EXECUTE tagdel(2)", "DELETE 1"),
    ("EXECUTE tagdel(1 + 0)", "DELETE 1"),
    ("EXPLAIN SELECT k FROM tags", "EXPLAIN"),
    ("DEALLOCATE ALL", "DEALLOCATE"),
    ("SET enable_topn = off", "SET"),
    ("SHOW enable_topn", "SHOW"),
    ("RESET enable_topn", "RESET"),
    ("BEGIN", "BEGIN"),
    ("SAVEPOINT s", "SAVEPOINT"),
    ("ROLLBACK TO s", "ROLLBACK"),
    ("RELEASE s", "RELEASE"),
    ("COMMIT", "COMMIT"),
    ("START TRANSACTION", "BEGIN"),
    ("ABORT", "ROLLBACK"),
    ("CHECKPOINT", "CHECKPOINT"),
    ("CHECK FUNCTION tagfn", "SELECT {rows}"),  # one per diagnostic
    ("DROP INDEX tags_k", "DROP INDEX"),
    ("DROP FUNCTION tagfn", "DROP FUNCTION"),
    ("DROP TABLE tags", "DROP TABLE"),
]


class TestCommandTags:
    def test_every_statement_kind_is_tagged(self, client):
        for sql, tag in TAGGED:
            messages = client.query(sql)
            tags = [payload.rstrip(b"\x00").decode()
                    for t, payload in messages if t == b"C"]
            rows = types_of(messages).count(b"D")
            assert tags == [tag.format(rows=rows)], sql
        kinds = {type(parse_statement(sql)) for sql, _ in TAGGED}
        assert kinds == set(A.STATEMENTS)


# ---------------------------------------------------------------------------
# Pure codec golden bytes (no server, no sockets)
# ---------------------------------------------------------------------------

class TestCodecGoldenBytes:
    def test_command_complete(self):
        from repro.server import protocol
        assert protocol.command_complete("SELECT 1") == \
            b"C\x00\x00\x00\x0dSELECT 1\x00"

    def test_ready_for_query(self):
        from repro.server import protocol
        assert protocol.ready_for_query(b"I") == b"Z\x00\x00\x00\x05I"
        assert protocol.ready_for_query(b"T") == b"Z\x00\x00\x00\x05T"

    def test_authentication_ok(self):
        from repro.server import protocol
        assert protocol.authentication_ok() == \
            b"R\x00\x00\x00\x08\x00\x00\x00\x00"

    def test_empty_query_response(self):
        from repro.server import protocol
        assert protocol.empty_query_response() == b"I\x00\x00\x00\x04"

    def test_data_row_null_sentinel(self):
        from repro.server import protocol
        assert protocol.data_row(["x", None]) == (
            b"D\x00\x00\x00\x0f"        # len 15: 4 + 2 + (4+1) + 4
            b"\x00\x02"                 # two columns
            b"\x00\x00\x00\x01x"        # 'x'
            b"\xff\xff\xff\xff")        # NULL -> length -1, no bytes

    def test_row_description_descriptor(self):
        from repro.server import protocol
        encoded = protocol.row_description(["a"])
        assert encoded == (
            b"T\x00\x00\x00\x1a"        # len 26: 4 + 2 + (1+1) + 18
            b"\x00\x01"                 # one column
            b"a\x00"                    # name
            b"\x00\x00\x00\x00"         # table oid 0
            b"\x00\x00"                 # attnum 0
            b"\x00\x00\x00\x19"         # type oid 25 (text)
            b"\xff\xff"                 # typlen -1
            b"\xff\xff\xff\xff"         # typmod -1
            b"\x00\x00")                # format 0 (text)

    def test_error_response_fields(self):
        from repro.server import protocol
        encoded = protocol.error_response("42601", "boom")
        assert encoded[:1] == b"E"
        assert encoded.endswith(
            b"S" b"ERROR\x00" b"V" b"ERROR\x00"
            b"C" b"42601\x00" b"M" b"boom\x00" b"\x00")

    def test_startup_round_trip(self):
        from repro.server import protocol
        params = {"user": "u", "database": "d"}
        encoded = protocol.encode_startup(params)
        (length,) = struct.unpack_from("!I", encoded, 0)
        assert length == len(encoded)
        (version,) = struct.unpack_from("!I", encoded, 4)
        assert version == protocol.PROTOCOL_VERSION
        assert protocol.parse_startup_payload(encoded[8:]) == params

    def test_sqlstate_map_is_injective(self):
        from repro.server import protocol
        states = list(protocol.SQLSTATE_FOR_LABEL.values())
        assert len(states) == len(set(states))
        for label, state in protocol.SQLSTATE_FOR_LABEL.items():
            assert protocol.LABEL_FOR_SQLSTATE[state] == label
