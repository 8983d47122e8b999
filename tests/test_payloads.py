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


@pytest.mark.parametrize("key", ["stub:100.0", "", "bündel-ß"])
def test_packing_a_stack_gives_the_bytes_of_one_call_per_row(key):
    # A (W, dim) stack cut to its first n_send columns is not contiguous.
    stack = np.random.default_rng(5).standard_normal((7, 5))
    sent = stack[:, :3]
    assert not sent.flags.c_contiguous
    assert pack_request(sent, key) == [pack_request(row, key) for row in sent]


def test_unpacking_a_sequence_gives_each_log_likelihood_bit_for_bit():
    values = [-12.5, -np.inf, 0.0, -0.0, 5e-324, -1.7976931348623157e308]
    payloads = [pack_response(v, i % 2 == 0, 1.0, 2.0) for i, v in enumerate(values)]
    got = unpack_response(payloads)
    assert got.tobytes() == np.array([unpack_response(p)[0] for p in payloads]).tobytes()


@pytest.mark.parametrize("bad, first", [
    ([b"", b"\0" * 26], "payload 1: 0 bytes"),
    ([b"\0" * 26, b""], "payload 1: 26 bytes"),
    ([b"\0" * 24, b"\0" * 24], "payload 1: 24 bytes"),
])
def test_unpacking_a_sequence_rejects_its_first_bad_length(bad, first):
    good = pack_response(0.0, False, 1.0, 2.0)
    with pytest.raises(WireFormatError, match=f"bad response {first}, not 25"):
        unpack_response([good, *bad, good])


def test_unpacking_request_payloads_gives_one_view_and_their_key():
    stack = np.random.default_rng(6).standard_normal((4, 3))
    payloads = pack_request(stack, "bündel")
    params, key = unpack_request(payloads)
    assert key == "bündel" and params.tobytes() == stack.tobytes()
    assert not params.flags.writeable
    one, _ = unpack_request(payloads[:1])
    assert one.shape == (1, 3) and one.tobytes() == stack[0].tobytes()


@pytest.mark.parametrize("other", [
    pack_request(np.zeros(3), "bündeL"),                # the key differs
    pack_request(np.zeros(2), "bündel" + "x" * 8),      # count and key, one length
    pack_request(np.zeros(3), "bündel") + b"\0",        # the length differs
])
def test_request_payloads_that_differ_outside_their_parameters_are_rejected(other):
    first = pack_request(np.ones(3), "bündel")
    assert unpack_request(other)  # each parses alone
    with pytest.raises(WireFormatError, match="bad request payloads"):
        unpack_request([first, first, other])


@pytest.mark.parametrize("as_array", [False, True])
def test_packing_response_sequences_gives_the_bytes_of_one_call_each(as_array):
    values = [-12.5, -np.inf, 0.0, -0.0, 5e-324, np.float64(-3.25)]
    colds = [True, False, np.True_, False, True, False]
    starts = [0.25, 3.0, 0.0, 1e9, 2.05, 7.0]
    ends = [1.75, 3.0, 100.0, 1e9 + 1.0, 102.05, 8.5]
    columns = (values, colds, starts, ends)
    if as_array:
        columns = tuple(np.array(column) for column in columns)
    expected = [pack_response(*fields) for fields in zip(values, colds, starts, ends)]
    assert pack_response(*columns) == expected
    assert [unpack_response(p)[1] for p in expected] == [bool(c) for c in colds]


def test_packing_no_responses_gives_no_payloads():
    assert pack_response([], [], [], []) == []
