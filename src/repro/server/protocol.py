"""PostgreSQL simple-protocol (v3) message codec.

Pure byte-level encode/decode for the subset of the wire protocol the
server speaks — no sockets, no asyncio, so the same functions back the
asyncio server, the blocking :mod:`repro.server.client`, the conformance
suite's independent test client, and the fuzzer's wire oracle.

Frames
------

Every message after the startup phase is ``type_byte + int32 length +
payload`` where the length covers itself but not the type byte.  The
startup phase is untyped: ``int32 length + int32 code + payload``, where
the code is a protocol version (:data:`PROTOCOL_VERSION`) or one of the
special request codes (:data:`SSL_REQUEST_CODE`,
:data:`CANCEL_REQUEST_CODE`).

Messages implemented (direction as in the PostgreSQL docs):

========================  ====  =========================================
StartupMessage            F->B  protocol version + ``key\\0value\\0...\\0``
SSLRequest                F->B  answered with a plain ``N`` byte
CancelRequest             F->B  pid + secret; trips the target's token
Query                     F->B  one SQL script, null-terminated
Terminate                 F->B  clean connection shutdown
AuthenticationOk          B->F  ``R`` + int32 0 (the only auth flavour)
ParameterStatus           B->F  ``S`` + two c-strings
BackendKeyData            B->F  ``K`` + pid + secret
RowDescription            B->F  ``T`` — all columns typed as text (oid 25)
DataRow                   B->F  ``D`` — values pre-rendered to text
CommandComplete           B->F  ``C`` + tag
EmptyQueryResponse        B->F  ``I``
ErrorResponse             B->F  ``E`` + S/V/C/M fields
NoticeResponse            B->F  ``N`` + S/V/C/M fields
ReadyForQuery             B->F  ``Z`` + transaction-status byte
========================  ====  =========================================

SQLSTATE mapping
----------------

:data:`SQLSTATE_FOR_LABEL` maps every :func:`repro.sql.errors.error_class`
taxonomy label to a distinct five-character SQLSTATE, so the fuzzer's wire
oracle can reverse an ErrorResponse back to the exact taxonomy label the
embedded engine would have produced (:data:`LABEL_FOR_SQLSTATE` is the
inverse; the mapping is deliberately injective).  Server-level conditions
that have no embedded counterpart get the standard PostgreSQL codes
(53300 too many connections, 57P05 idle timeout, 08P01 protocol
violation).
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from ..sql.errors import error_class
from ..sql.values import render_value

#: ``196608`` — protocol 3.0, the only version accepted.
PROTOCOL_VERSION = 196608
#: Startup-phase magic for an SSL negotiation probe (answered ``N``).
SSL_REQUEST_CODE = 80877103
#: Startup-phase magic for an out-of-band cancel request.
CANCEL_REQUEST_CODE = 80877102

#: Injective taxonomy-label -> SQLSTATE map (see module docstring).
SQLSTATE_FOR_LABEL = {
    "serialization": "40001",
    "query-canceled": "57014",
    "io": "58030",
    "parse": "42601",
    "name-resolution": "42704",
    "plan": "0A000",
    "execution": "22000",
    "type": "42804",
    "catalog": "42P01",
    "setting": "22023",
    "compile": "42P13",
    "no-return": "2F005",
    "plsql-runtime": "P0001",
    "plsql": "P0000",
    "sql": "XX001",
    "crash": "XX000",
}
LABEL_FOR_SQLSTATE = {state: label for label, state in
                      SQLSTATE_FOR_LABEL.items()}
assert len(LABEL_FOR_SQLSTATE) == len(SQLSTATE_FOR_LABEL)

#: Server-level SQLSTATEs (no embedded-engine counterpart).
TOO_MANY_CONNECTIONS = "53300"
IDLE_TIMEOUT = "57P05"
PROTOCOL_VIOLATION = "08P01"

#: Transaction-status bytes carried by ReadyForQuery.
STATUS_IDLE = b"I"
STATUS_IN_TRANSACTION = b"T"

#: Upper bound on a single frame (16 MiB) — a length prefix beyond this is
#: treated as a malformed frame, not an allocation request.
MAX_MESSAGE_LENGTH = 16 * 1024 * 1024

_TEXT_OID = 25  # everything is text on this wire


def sqlstate_for(error: BaseException) -> str:
    """The SQLSTATE an engine exception travels under."""
    return SQLSTATE_FOR_LABEL[error_class(error)]


class ProtocolError(Exception):
    """A malformed or out-of-protocol frame (maps to SQLSTATE 08P01)."""


# ---------------------------------------------------------------------------
# Encoding (backend -> frontend)
# ---------------------------------------------------------------------------

def encode_message(type_byte: bytes, payload: bytes = b"") -> bytes:
    """One typed frame: type byte + length (covering itself) + payload."""
    return type_byte + struct.pack("!I", len(payload) + 4) + payload


def _cstr(text: str) -> bytes:
    return text.encode("utf-8", "replace") + b"\x00"


def authentication_ok() -> bytes:
    return encode_message(b"R", struct.pack("!I", 0))


def parameter_status(name: str, value: str) -> bytes:
    return encode_message(b"S", _cstr(name) + _cstr(value))


def backend_key_data(pid: int, secret: int) -> bytes:
    return encode_message(b"K", struct.pack("!II", pid & 0xFFFFFFFF,
                                            secret & 0xFFFFFFFF))


def ready_for_query(status: bytes = STATUS_IDLE) -> bytes:
    return encode_message(b"Z", status)


def row_description(columns: Sequence[str]) -> bytes:
    parts = [struct.pack("!H", len(columns))]
    for name in columns:
        parts.append(_cstr(name))
        # table oid, attnum, type oid (text), typlen, typmod, format(text)
        parts.append(struct.pack("!IhIhih", 0, 0, _TEXT_OID, -1, -1, 0))
    return encode_message(b"T", b"".join(parts))


def data_row(values: Sequence[Optional[str]]) -> bytes:
    """One DataRow; entries are pre-rendered text, ``None`` meaning NULL."""
    parts = [struct.pack("!H", len(values))]
    for value in values:
        if value is None:
            parts.append(struct.pack("!i", -1))
        else:
            data = value.encode("utf-8", "replace")
            parts.append(struct.pack("!i", len(data)))
            parts.append(data)
    return encode_message(b"D", b"".join(parts))


def render_row(row: Sequence) -> tuple:
    """Render an engine row for the wire (SQL NULL stays ``None``)."""
    return tuple(None if value is None else render_value(value)
                 for value in row)


def command_complete(tag: str) -> bytes:
    return encode_message(b"C", _cstr(tag))


def empty_query_response() -> bytes:
    return encode_message(b"I")


def _diagnostic_fields(severity: str, code: str, message: str) -> bytes:
    return (b"S" + _cstr(severity) + b"V" + _cstr(severity)
            + b"C" + _cstr(code) + b"M" + _cstr(message) + b"\x00")


def error_response(code: str, message: str,
                   severity: str = "ERROR") -> bytes:
    return encode_message(b"E", _diagnostic_fields(severity, code, message))


def notice_response(message: str, code: str = "00000",
                    severity: str = "NOTICE") -> bytes:
    return encode_message(b"N", _diagnostic_fields(severity, code, message))


# ---------------------------------------------------------------------------
# Decoding (both directions; the test client decodes backend messages too)
# ---------------------------------------------------------------------------

def encode_startup(params: dict[str, str]) -> bytes:
    """Frontend StartupMessage for :class:`~repro.server.client.WireClient`."""
    payload = struct.pack("!I", PROTOCOL_VERSION)
    for key, value in params.items():
        payload += _cstr(key) + _cstr(value)
    payload += b"\x00"
    return struct.pack("!I", len(payload) + 4) + payload


def encode_query(sql: str) -> bytes:
    return encode_message(b"Q", _cstr(sql))


def encode_terminate() -> bytes:
    return encode_message(b"X")


def encode_cancel_request(pid: int, secret: int) -> bytes:
    """Frontend CancelRequest: an untyped startup-phase frame sent on a
    *fresh* connection (the canceled session's socket is busy mid-query)."""
    return struct.pack("!IIII", 16, CANCEL_REQUEST_CODE,
                       pid & 0xFFFFFFFF, secret & 0xFFFFFFFF)


def parse_startup_payload(payload: bytes) -> dict[str, str]:
    """Decode the ``key\\0value\\0...\\0`` tail of a StartupMessage."""
    params: dict[str, str] = {}
    parts = payload.split(b"\x00")
    # trailing terminator -> last one/two parts are empty
    fields = [p for p in parts if p]
    if len(fields) % 2:
        raise ProtocolError("startup parameters are not key/value pairs")
    for i in range(0, len(fields), 2):
        params[fields[i].decode("utf-8", "replace")] = \
            fields[i + 1].decode("utf-8", "replace")
    return params


def parse_diagnostic_fields(payload: bytes) -> dict[str, str]:
    """Decode ErrorResponse/NoticeResponse fields into ``{code: text}``."""
    fields: dict[str, str] = {}
    pos = 0
    while pos < len(payload) and payload[pos:pos + 1] != b"\x00":
        code = payload[pos:pos + 1].decode("ascii", "replace")
        end = payload.index(b"\x00", pos + 1)
        fields[code] = payload[pos + 1:end].decode("utf-8", "replace")
        pos = end + 1
    return fields


def parse_row_description(payload: bytes) -> list[str]:
    (count,) = struct.unpack_from("!H", payload, 0)
    pos = 2
    names = []
    for _ in range(count):
        end = payload.index(b"\x00", pos)
        names.append(payload[pos:end].decode("utf-8", "replace"))
        pos = end + 1 + 18  # fixed-width field descriptor
    return names


def parse_data_row(payload: bytes) -> list[Optional[str]]:
    (count,) = struct.unpack_from("!H", payload, 0)
    pos = 2
    values: list[Optional[str]] = []
    for _ in range(count):
        (length,) = struct.unpack_from("!i", payload, pos)
        pos += 4
        if length < 0:
            values.append(None)
        else:
            values.append(payload[pos:pos + length].decode("utf-8",
                                                           "replace"))
            pos += length
    return values


def parse_command_complete(payload: bytes) -> str:
    return payload.rstrip(b"\x00").decode("utf-8", "replace")
