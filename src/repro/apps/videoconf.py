"""The §4 video-conferencing application on the real runtime.

The structure is exactly the paper's (Figure 5):

* the **server program** creates cluster address spaces, a mixer thread
  in its own space ``N_M``, and a composite channel ``C0``;
* each **client program** (an end device over TCP) creates its own video
  channel ``C_j``, runs a producer thread putting timestamped frames into
  it, and a display thread getting composites from ``C0``;
* the **mixer** attaches to every ``C_j``, gets *corresponding
  timestamped* frames, composes them, and puts the composite into ``C0``.

Both mixer organisations of §5.2 are provided: ``single`` (one thread
does gets, composition and the put serially) and ``multi`` (one getter
thread per participant feeding an assembly buffer, plus a designated
compositing thread — "once the image is fully constructed, it is placed
in the channel by a designated thread").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.apps.frames import Frame, VirtualCamera, compose, decompose, \
    verify_frame
from repro.core.connection import ConnectionMode
from repro.core.threads import StampedeThread, spawn
from repro.client.client import RemoteConnection, StampedeClient
from repro.errors import StampedeError
from repro.runtime.runtime import Runtime
from repro.runtime.server import StampedeServer
from repro.util.logging import get_logger

_log = get_logger("apps.videoconf")

COMPOSITE_CHANNEL = "composite:C0"


def video_channel_name(participant: int) -> str:
    """The channel name for one participant's camera stream."""
    return f"video:C{participant}"


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


class ConferenceServer:
    """The cluster half: runtime, TCP front door, and the mixer."""

    def __init__(self, participants: int, frames: int,
                 mixer_mode: str = "multi", host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if mixer_mode not in ("single", "multi"):
            raise ValueError(f"unknown mixer mode {mixer_mode!r}")
        self.participants = participants
        self.frames = frames
        self.mixer_mode = mixer_mode
        self.runtime = Runtime(name="videoconf", gc_interval=0.02)
        self.runtime.create_address_space("N_M")
        # shards is pinned to 1: the mixer threads live in this process
        # and attach to the runtime object directly, so the space-time
        # memory cannot be fork-sharded out from under them (sharding
        # requires every producer/consumer to enter through the TCP
        # front door — see docs/SCALING.md).
        self.server = StampedeServer(
            self.runtime, host=host, port=port,
            device_spaces=["N1", "N2"], shards=1,
        ).start()
        self.runtime.create_channel(COMPOSITE_CHANNEL, space="N_M",
                                    capacity=8)
        self._mixer_threads: List[StampedeThread] = []

    @property
    def address(self):
        """The TCP address participants join through."""
        return self.server.address

    def start_mixer(self) -> None:
        """Spawn the mixer once all participant channels are announced."""
        if self.mixer_mode == "single":
            self._mixer_threads.append(
                self.runtime.spawn("N_M", self._single_threaded_mixer,
                                   name="mixer")
            )
        else:
            self._start_multi_threaded_mixer()

    def join_mixer(self, timeout: float) -> None:
        """Wait for every mixer thread to finish its frames."""
        for thread in self._mixer_threads:
            thread.join(timeout=timeout)

    def close(self) -> None:
        """Stop the server and tear down the runtime."""
        self.server.close()
        self.runtime.shutdown()

    # -- mixer organisations ------------------------------------------------------

    def _attach_inputs(self):
        """Input connections to every participant channel (waits for the
        dynamically-joining devices to create them)."""
        connections = []
        for participant in range(self.participants):
            connections.append(self.runtime.attach(
                video_channel_name(participant), ConnectionMode.IN,
                from_space="N_M", owner="mixer", wait=30.0,
            ))
        return connections

    def _single_threaded_mixer(self) -> None:
        inputs = self._attach_inputs()
        output = self.runtime.attach(COMPOSITE_CHANNEL, ConnectionMode.OUT,
                                     from_space="N_M", owner="mixer")
        for ts in range(self.frames):
            tiles = []
            for connection in inputs:
                _, payload = connection.get(ts, timeout=30.0)
                tiles.append(Frame.decode(payload))
                connection.consume(ts)
            output.put(ts, compose(tiles))

    def _start_multi_threaded_mixer(self) -> None:
        assembly: Dict[int, Dict[int, Frame]] = {}
        lock = threading.Lock()
        complete = threading.Condition(lock)

        def getter(participant: int) -> None:
            connection = self.runtime.attach(
                video_channel_name(participant), ConnectionMode.IN,
                from_space="N_M", owner=f"mixer-getter-{participant}",
                wait=30.0,
            )
            for ts in range(self.frames):
                _, payload = connection.get(ts, timeout=30.0)
                frame = Frame.decode(payload)
                connection.consume(ts)
                with lock:
                    assembly.setdefault(ts, {})[participant] = frame
                    complete.notify_all()

        def designated_putter() -> None:
            output = self.runtime.attach(
                COMPOSITE_CHANNEL, ConnectionMode.OUT,
                from_space="N_M", owner="mixer-putter",
            )
            for ts in range(self.frames):
                with lock:
                    while len(assembly.get(ts, {})) < self.participants:
                        if not complete.wait(timeout=30.0):
                            raise StampedeError(
                                f"mixer starved waiting for frame {ts}"
                            )
                    tiles = [assembly[ts][p]
                             for p in range(self.participants)]
                    del assembly[ts]
                output.put(ts, compose(tiles))

        for participant in range(self.participants):
            self._mixer_threads.append(self.runtime.spawn(
                "N_M", getter, participant,
                name=f"mixer-getter-{participant}",
            ))
        self._mixer_threads.append(self.runtime.spawn(
            "N_M", designated_putter, name="mixer-putter"
        ))


# ---------------------------------------------------------------------------
# Client side (end device)
# ---------------------------------------------------------------------------


@dataclass
class ParticipantResult:
    """What one participant's display thread observed."""

    participant: int
    composites_received: int = 0
    tiles_verified: int = 0
    corrupt_tiles: int = 0
    errors: List[str] = field(default_factory=list)


class ConferenceParticipant:
    """One end device: a producer thread and a display thread sharing a
    single client connection, as in §4."""

    def __init__(self, participant: int, host: str, port: int,
                 frames: int, image_size: int,
                 codec: str = "xdr") -> None:
        self.participant = participant
        self.frames = frames
        self.camera = VirtualCamera(participant, image_size)
        self.client = StampedeClient(
            host, port, client_name=f"participant-{participant}",
            codec=codec,
        )
        self.result = ParticipantResult(participant)
        self._threads: List[StampedeThread] = []

    def start(self) -> None:
        """Create this device's channel and start its threads.

        The display attaches to the composite channel here, on the
        calling thread, before any thread runs: once ``start`` returns
        the device has fully joined.  A display that attached from its
        own thread could lose the race to an earlier participant's
        consume, and the collector would reclaim composites it never
        saw.
        """
        self.client.create_channel(video_channel_name(self.participant),
                                   capacity=8)
        composites = self.client.attach(
            COMPOSITE_CHANNEL, ConnectionMode.IN, wait=30.0
        )
        self._threads.append(spawn(
            self._producer, name=f"producer-{self.participant}"
        ))
        self._threads.append(spawn(
            self._display, composites,
            name=f"display-{self.participant}",
        ))

    def _producer(self) -> None:
        connection = self.client.attach(
            video_channel_name(self.participant), ConnectionMode.OUT
        )
        for ts in range(self.frames):
            frame = self.camera.capture(ts)
            # Streaming put: fire-and-forget, so the camera pipelines
            # frames without paying a round trip each (the socket
            # version's producer streams the same way).
            connection.put(ts, frame.encode(), sync=False)

    def _display(self, connection: RemoteConnection) -> None:
        for ts in range(self.frames):
            try:
                _, composite = connection.get(ts, timeout=30.0)
            except StampedeError as exc:
                self.result.errors.append(f"frame {ts}: {exc}")
                return
            self.result.composites_received += 1
            for tile in decompose(composite, ts):
                if verify_frame(tile):
                    self.result.tiles_verified += 1
                else:
                    self.result.corrupt_tiles += 1
            connection.consume(ts, sync=False)

    def finish(self, timeout: float) -> ParticipantResult:
        """Join this device's threads and return what it saw."""
        for thread in self._threads:
            thread.join(timeout=timeout)
        self.client.close()
        return self.result


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConferenceResult:
    """Aggregate outcome of a conference run."""

    participants: List[ParticipantResult]
    frames: int

    @property
    def total_composites(self) -> int:
        """Composites received across all displays."""
        return sum(p.composites_received for p in self.participants)

    @property
    def all_verified(self) -> bool:
        """True when every expected tile verified with no errors."""
        expected_tiles = (len(self.participants) * self.frames
                          * len(self.participants))
        return (all(not p.errors and p.corrupt_tiles == 0
                    for p in self.participants)
                and sum(p.tiles_verified
                        for p in self.participants) == expected_tiles)


def run_conference(participants: int = 2, frames: int = 10,
                   image_size: int = 2_000, mixer_mode: str = "multi",
                   codec: str = "xdr",
                   timeout: float = 60.0) -> ConferenceResult:
    """Run a full conference end-to-end over real TCP and return what
    every display saw.  This is the §4 application as an integration
    harness: every frame of every participant is verified tile-by-tile.
    """
    server = ConferenceServer(participants, frames, mixer_mode=mixer_mode)
    members: List[ConferenceParticipant] = []
    try:
        host, port = server.address
        for participant in range(participants):
            member = ConferenceParticipant(
                participant, host, port, frames, image_size, codec=codec,
            )
            member.start()
            members.append(member)
        server.start_mixer()
        server.join_mixer(timeout=timeout)
        results = [member.finish(timeout=timeout) for member in members]
        return ConferenceResult(participants=results, frames=frames)
    finally:
        for member in members:
            try:
                member.client.close()
            except StampedeError:  # pragma: no cover - teardown raciness
                pass
        server.close()
