import numpy as np
import pytest

from queuemc.errors import WireFormatError
from queuemc.payloads import LikelihoodRequest, pack_request, unpack_request


def test_request_round_trip():
    payload = pack_request(LikelihoodRequest(np.array([1.5, -2.0, 0.0]), "bündel"))
    req = unpack_request(payload)
    assert req.params.tolist() == [1.5, -2.0, 0.0] and req.dataset_key == "bündel"
    assert not req.params.flags.writeable  # a view of the payload


@pytest.mark.parametrize("cut", [1, 3, 6])
def test_truncated_request_is_rejected(cut):
    payload = pack_request(LikelihoodRequest(np.array([1.0]), "bündel"))
    with pytest.raises(WireFormatError):
        unpack_request(payload[:-cut])
