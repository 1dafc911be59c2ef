"""Fuzz tests: hostile bytes must fail cleanly at every trust boundary.

Every decoder that consumes network input must raise a typed
:class:`~repro.errors.StampedeError` subclass on malformed data — never
``IndexError``, ``KeyError``, ``MemoryError``, or a hang.  Hypothesis
drives random and structurally-mutated inputs through each one.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DecodeError, FramingError, StampedeError
from repro.marshal import JdrCodec, XdrCodec
from repro.runtime import ops
from repro.transport.message import ClfPacket

codecs = pytest.mark.parametrize(
    "codec", [XdrCodec(), JdrCodec()], ids=lambda c: c.name
)


@codecs
class TestCodecFuzzing:
    @given(data=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash(self, codec, data):
        try:
            codec.decode(data)
        except DecodeError:
            pass  # the only acceptable failure

    @given(data=st.binary(min_size=1, max_size=100),
           flips=st.lists(st.integers(min_value=0, max_value=99),
                          min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_bitflipped_valid_encodings(self, codec, data, flips):
        encoded = bytearray(codec.encode({"payload": data, "n": 7}))
        for position in flips:
            encoded[position % len(encoded)] ^= 0x41
        try:
            codec.decode(bytes(encoded))
        except DecodeError:
            pass  # corruption detected
        # A silent wrong-but-well-formed decode is acceptable for a
        # non-checksummed wire format; crashing is not.

    @given(prefix=st.binary(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_truncations_of_valid_encodings(self, codec, prefix):
        encoded = codec.encode([1, "two", b"three", {"k": None}])
        for cut in range(0, len(encoded), 7):
            try:
                codec.decode(prefix + encoded[:cut])
            except DecodeError:
                pass


class TestOpsFuzzing:
    @given(data=st.binary(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_request_decoder_total(self, data):
        try:
            ops.decode_request(data)
        except DecodeError:
            pass

    @given(data=st.binary(max_size=120),
           opcode=st.sampled_from(sorted(ops.OP_SCHEMAS)))
    @settings(max_examples=200, deadline=None)
    def test_response_decoder_total(self, data, opcode):
        try:
            ops.decode_response(data, opcode)
        except DecodeError:
            pass

    @given(data=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_clf_packet_decoder_total(self, data):
        try:
            ClfPacket.decode(data)
        except FramingError:
            pass


class TestFilterSpecFuzzing:
    @given(
        spec=st.recursive(
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                st.binary(max_size=8),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=12,
        )
    )
    @example(spec={"kind": []})  # unhashable kind: DecodeError, not TypeError
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_specs_never_crash(self, spec):
        from repro.core.filters import filter_from_spec

        try:
            rebuilt = filter_from_spec(spec)
        except DecodeError:
            return
        # If it parsed, it must be usable and total.
        assert rebuilt.matches(0, None) in (True, False)
        assert rebuilt.matches(123, {"k": b"v"}) in (True, False)

    @given(kind=st.text(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_unknown_kinds_rejected(self, kind):
        from repro.core.filters import _PARSERS, filter_from_spec

        if kind in _PARSERS:
            return
        with pytest.raises(DecodeError):
            filter_from_spec({"kind": kind})


class TestFrameFuzzing:
    @given(data=st.binary(max_size=128))
    @settings(max_examples=200, deadline=None)
    def test_frame_decoder_total(self, data):
        from repro.apps.frames import Frame

        try:
            Frame.decode(data)
        except DecodeError:
            pass

    @given(data=st.binary(max_size=128),
           ts=st.integers(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_composite_decoder_total(self, data, ts):
        from repro.apps.frames import decompose

        try:
            decompose(data, ts)
        except DecodeError:
            pass


class TestHostileClientAgainstLiveServer:
    def test_garbage_frames_do_not_kill_the_server(self):
        """A byte-spewing client must not take down the listener or
        other sessions."""
        from repro import ConnectionMode, Runtime, StampedeClient, \
            StampedeServer
        from repro.transport.tcp import connect_tcp

        runtime = Runtime()
        server = StampedeServer(runtime).start()
        try:
            host, port = server.address
            # A real client works...
            good = StampedeClient(host, port)
            good.create_channel("resilience")
            # ...then an attacker connects and sends garbage frames.
            attacker = connect_tcp((host, port))
            attacker.send_frame(b"\x00" * 40)
            attacker.send_frame(b"not an rpc request at all")
            attacker.send_frame(bytes(range(256)))
            # The good client's session keeps functioning.
            out = good.attach("resilience", ConnectionMode.OUT)
            inp = good.attach("resilience", ConnectionMode.IN)
            out.put(0, b"still alive")
            assert inp.get(0) == (0, b"still alive")
            attacker.close()
            good.close()
        finally:
            server.close()
            runtime.shutdown()

    def test_partial_frame_then_disconnect(self):
        """A client that dies mid-frame leaves no wedged surrogate."""
        import socket
        import time

        from repro import Runtime, StampedeServer

        runtime = Runtime()
        server = StampedeServer(runtime).start()
        try:
            host, port = server.address
            raw = socket.create_connection((host, port))
            raw.sendall(b"\x00\x00\x10\x00partial")  # length prefix lies
            raw.close()
            deadline = time.monotonic() + 3.0
            while server.device_count and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server.device_count == 0
        finally:
            server.close()
            runtime.shutdown()
