"""Binary payload encodings for likelihood requests and responses.

Both payloads are little-endian and live inside ``Message.payload``.

Request:  walker_id u32, iteration u32, n_params u32, n_params f64,
          key_len u32, key bytes (UTF-8).
Response: walker_id u32, iteration u32, log_likelihood f64, cold u8,
          compute_start_ts f64, compute_end_ts f64.

Control payloads used for surfaced worker errors are ASCII
``ERR:<code>:<detail>``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import WireFormatError

_REQ_HEAD = struct.Struct("<III")
_REQ_KEYLEN = struct.Struct("<I")
_RESP = struct.Struct("<IIdBdd")


@dataclass(frozen=True)
class LikelihoodRequest:
    walker_id: int
    iteration: int
    params: np.ndarray
    dataset_key: str


@dataclass(frozen=True)
class LikelihoodResponse:
    walker_id: int
    iteration: int
    log_likelihood: float
    cold: bool
    compute_start_ts: float
    compute_end_ts: float


def pack_request(req: LikelihoodRequest) -> bytes:
    params = np.asarray(req.params, dtype=np.float64)
    key = req.dataset_key.encode("utf-8")
    return (_REQ_HEAD.pack(req.walker_id, req.iteration, params.size)
            + params.tobytes()
            + _REQ_KEYLEN.pack(len(key)) + key)


def unpack_request(payload: bytes) -> LikelihoodRequest:
    try:
        walker_id, iteration, n = _REQ_HEAD.unpack_from(payload, 0)
        off = _REQ_HEAD.size
        params = np.frombuffer(payload, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        (key_len,) = _REQ_KEYLEN.unpack_from(payload, off)
        off += _REQ_KEYLEN.size
        key = payload[off:off + key_len].decode("utf-8")
        if len(key.encode("utf-8")) != key_len:
            raise ValueError("truncated dataset key")
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise WireFormatError(f"bad request payload: {exc}") from exc
    return LikelihoodRequest(walker_id, iteration, params, key)


def pack_response(resp: LikelihoodResponse) -> bytes:
    return _RESP.pack(resp.walker_id, resp.iteration, resp.log_likelihood,
                      1 if resp.cold else 0, resp.compute_start_ts, resp.compute_end_ts)


def unpack_response(payload: bytes) -> LikelihoodResponse:
    try:
        walker_id, iteration, loglik, cold, t0, t1 = _RESP.unpack(payload)
    except struct.error as exc:
        raise WireFormatError(f"bad response payload: {exc}") from exc
    return LikelihoodResponse(walker_id, iteration, loglik, bool(cold), t0, t1)


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
