"""Binary payload encodings for likelihood requests and responses.

Both payloads are little-endian and live inside ``Message.payload``. They
say nothing of which walker or iteration they belong to: the enclosing
message's ``msg_id``, the request's sequence number, is its only identity.

Request:  n_params u32, n_params f64, key_len u32, key bytes (UTF-8).
Response: log_likelihood f64, cold u8, start_ts f64, end_ts f64.

The request and response functions also take a lockstep wave at once: a
``(W, n)`` stack of parameter rows packs into W request payloads, W
request payloads unpack into a ``(W, n)`` view and their one key, W
sequences of response fields pack into W response payloads, and W
response payloads unpack into their W log-likelihoods. Each payload of a
wave holds the bytes that a call on its own entries gives.

Control payloads used for surfaced worker errors are ASCII
``ERR:<code>:<detail>``.
"""

from __future__ import annotations

import struct
from operator import truth
from typing import Sequence

import numpy as np

from .errors import WireFormatError

_U32 = struct.Struct("<I")
_RESP = struct.Struct("<dBdd")
_BYTES = (bytes, bytearray, memoryview)
_SCALARS = (int, float, np.generic)


def pack_request(params: np.ndarray, dataset_key: str) -> bytes | list[bytes]:
    """One request payload for a parameter vector, or a list of W payloads
    for a ``(W, n)`` stack, payload w the bytes of a call on row w."""
    params = np.asarray(params, dtype=np.float64)
    key = dataset_key.encode("utf-8")
    tail = _U32.pack(len(key)) + key
    if params.ndim < 2:
        return _U32.pack(params.size) + params.tobytes() + tail
    count, n = params.shape
    head, row = _U32.pack(n), 8 * n
    flat = params.tobytes()
    return [head + flat[i:i + row] + tail for i in range(0, count * row, row)]


def unpack_request(payload: bytes | Sequence[bytes]) -> tuple[np.ndarray, str]:
    """Parse a request payload into (params, dataset_key); ``params`` is a
    read-only view of the payload.

    A sequence of B payloads parses into a ``(B, n)`` view of their joined
    bytes and their one key. Outside their parameters they must hold the
    same bytes: the same count and the same key.
    """
    if isinstance(payload, _BYTES):
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
    params, key = unpack_request(payload[0])
    if len(payload) == 1:
        return params[None], key
    size, tail = len(payload[0]), _U32.size + 8 * params.size
    if set(map(len, payload)) != {size}:
        raise WireFormatError("bad request payloads: their lengths differ")
    joined = b"".join(payload)
    rows = np.frombuffer(joined, np.uint8).reshape(len(payload), size)
    if not ((rows[:, :_U32.size] == rows[0, :_U32.size]).all()
            and (rows[:, tail:] == rows[0, tail:]).all()):
        raise WireFormatError("bad request payloads: their counts or keys differ")
    return np.ndarray((len(payload), params.size), "<f8", joined, _U32.size, (size, 8)), key


def pack_response(log_likelihood, cold, start_ts, end_ts) -> bytes | list[bytes]:
    """One response payload, or, given four sequences in step, one payload
    per entry, payload i the bytes of a call on the i-th entries."""
    if isinstance(log_likelihood, _SCALARS):
        return _RESP.pack(log_likelihood, 1 if cold else 0, start_ts, end_ts)
    return list(map(_RESP.pack, log_likelihood, map(truth, cold), start_ts, end_ts))


def unpack_response(payload: bytes | Sequence[bytes],
                    ) -> tuple[float, bool, float, float] | np.ndarray:
    """Parse a response payload into (log_likelihood, cold, start_ts, end_ts),
    or a sequence of payloads into their log-likelihoods as one array.

    A sequence raises :class:`WireFormatError` for its first payload, in
    order, of the wrong length, and names its index.
    """
    if isinstance(payload, _BYTES):
        try:
            loglik, cold, t0, t1 = _RESP.unpack(payload)
        except struct.error as exc:
            raise WireFormatError(f"bad response payload: {exc}") from exc
        return loglik, bool(cold), t0, t1
    if set(map(len, payload)) - {_RESP.size}:
        i, bad = next((i, one) for i, one in enumerate(payload) if len(one) != _RESP.size)
        raise WireFormatError(
            f"bad response payload {i}: {len(bad)} bytes, not {_RESP.size}")
    joined = b"".join(payload)
    return np.ndarray((len(payload),), "<f8", joined, 0, (_RESP.size,))


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
