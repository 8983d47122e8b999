import numpy as np
import pytest

from queuemc.errors import WireFormatError
from queuemc.payloads import (pack_request, pack_response, unpack_request,
                              unpack_response)


def test_request_round_trip():
    payload = pack_request(np.array([1.5, -2.0, 0.0]), "bündel")
    params, key = unpack_request(payload)
    assert params.tolist() == [1.5, -2.0, 0.0] and key == "bündel"
    assert not params.flags.writeable  # a view of the payload


@pytest.mark.parametrize("cut", [1, 3, 6])
def test_truncated_request_is_rejected(cut):
    payload = pack_request(np.array([1.0]), "bündel")
    with pytest.raises(WireFormatError):
        unpack_request(payload[:-cut])


@pytest.mark.parametrize("fields", [(-12.5, True, 0.25, 1.75),
                                    (-np.inf, False, 3.0, 3.0)])
def test_response_round_trip(fields):
    unpacked = unpack_response(pack_response(*fields))
    assert unpacked == fields
    assert type(unpacked[1]) is bool


@pytest.mark.parametrize("edit", [lambda p: p[:-1], lambda p: p + b"\0", lambda p: b""])
def test_short_or_long_response_is_rejected(edit):
    with pytest.raises(WireFormatError, match="bad response payload"):
        unpack_response(edit(pack_response(0.0, False, 1.0, 2.0)))
