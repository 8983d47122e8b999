"""Binary payload encodings for likelihood requests and responses.

Both payloads are little-endian and live inside ``Message.payload``. They
say nothing of which walker or iteration they belong to: the enclosing
message's ``msg_id``, the request's sequence number, is its only identity.

Request:  n_params u32, n_params f64, key_len u32, key bytes (UTF-8).
Response: log_likelihood f64, cold u8, start_ts f64, end_ts f64.

Control payloads used for surfaced worker errors are ASCII
``ERR:<code>:<detail>``.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import WireFormatError

_U32 = struct.Struct("<I")
_RESP = struct.Struct("<dBdd")


def pack_request(params: np.ndarray, dataset_key: str) -> bytes:
    params = np.asarray(params, dtype=np.float64)
    key = dataset_key.encode("utf-8")
    return _U32.pack(params.size) + params.tobytes() + _U32.pack(len(key)) + key


def unpack_request(payload: bytes) -> tuple[np.ndarray, str]:
    """Parse a request payload into (params, dataset_key); ``params`` is a
    read-only view of the payload."""
    try:
        (n,) = _U32.unpack_from(payload, 0)
        params = np.frombuffer(payload, dtype="<f8", count=n, offset=_U32.size)
        off = _U32.size + 8 * n
        (key_len,) = _U32.unpack_from(payload, off)
        off += _U32.size
        key = payload[off:off + key_len]
        if len(key) != key_len:
            raise ValueError("truncated dataset key")
        return params, key.decode("utf-8")
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"bad request payload: {exc}") from exc


def pack_response(log_likelihood: float, cold: bool, start_ts: float,
                  end_ts: float) -> bytes:
    return _RESP.pack(log_likelihood, 1 if cold else 0, start_ts, end_ts)


def unpack_response(payload: bytes) -> tuple[float, bool, float, float]:
    """Parse a response payload into (log_likelihood, cold, start_ts, end_ts)."""
    try:
        loglik, cold, t0, t1 = _RESP.unpack(payload)
    except struct.error as exc:
        raise WireFormatError(f"bad response payload: {exc}") from exc
    return loglik, bool(cold), t0, t1


def pack_error(code: str, detail: str) -> bytes:
    return f"ERR:{code}:{detail}".encode("utf-8", errors="replace")


def parse_error(payload: bytes) -> tuple[str, str] | None:
    """Return (code, detail) if the payload is an error record, else None.

    A record without a detail (``ERR:<code>``) parses with an empty detail;
    bytes that are not UTF-8 decode to U+FFFD.
    """
    if not payload.startswith(b"ERR:"):
        return None
    code, _, detail = payload[4:].decode("utf-8", errors="replace").partition(":")
    return code, detail
