"""Adversary simulations for the paper's threat model (Section VI-B).

The model grants the adversary three capabilities:

* eavesdropping on the device-server channel;
* manipulating messages in transit (modify / inject / delete);
* reading public helper data stored at the server (insider access).

Each capability is modelled as a reusable component that plugs into the
transport's wire hooks or the store's attack-surface helpers, and each has
a corresponding *expected defence*: the robust sketch detects helper-data
modification, one-shot sessions reject replays, and signatures bind
responses to challenges.  Integration tests assert every attack below is
defeated (and that the *attacks work* when the defence is deliberately
disabled — otherwise a passing test would prove nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.extractor import HelperData
from repro.protocols.messages import (
    IdentificationChallenge,
    Message,
)

if TYPE_CHECKING:
    from repro.engine.engine import IdentificationEngine


@dataclass
class Eavesdropper:
    """Passive wiretap: records every frame that crosses a channel."""

    frames: list[bytes] = field(default_factory=list)

    def hook(self, wire: bytes) -> bytes:
        """Wire hook: record the frame, pass it through unchanged."""
        self.frames.append(wire)
        return wire

    def observed_messages(self) -> list[Message]:
        """Decode everything captured (the adversary can parse public data)."""
        return [Message.decode(frame) for frame in self.frames]


@dataclass
class HelperDataTamperer:
    """Active MITM that rewrites helper data inside server->device challenges.

    Models Boyen et al.'s attack on non-robust sketches: flip movement
    coordinates inside ``P`` while it is in transit.  Against the robust
    sketch the device's ``Rep`` raises ``TamperDetectedError`` and
    identification fails — which is the Theorem-5 behaviour the tests
    assert.
    """

    #: Index of the movement coordinate to corrupt.
    coordinate: int = 0
    #: Added to the movement value (kept small so the sketch stays
    #: structurally valid and only the hash check can catch it).
    delta: int = 1
    tampered_count: int = 0

    def hook(self, wire: bytes) -> bytes:
        """Wire hook: rewrite helper data inside identification challenges."""
        try:
            message = Message.decode(wire)
        except Exception:
            return wire
        if not isinstance(message, IdentificationChallenge):
            return wire
        helper = HelperData.from_bytes(message.helper_data)
        movements = helper.movements.copy()
        half_interval = int(np.max(np.abs(movements))) if len(movements) else 0
        new_value = int(movements[self.coordinate]) + self.delta
        # Keep the tampered movement inside a plausible envelope so the
        # structural validator cannot reject it before the hash check.
        if abs(new_value) > half_interval:
            new_value = -int(movements[self.coordinate])
            if new_value == int(movements[self.coordinate]):
                new_value = new_value + self.delta
        movements[self.coordinate] = new_value
        tampered = HelperData(
            movements=movements, tag=helper.tag, seed=helper.seed
        )
        self.tampered_count += 1
        return IdentificationChallenge(
            helper_data=tampered.to_bytes(),
            challenge=message.challenge,
            session_id=message.session_id,
        ).encode()


@dataclass
class ReplayAttacker:
    """Captures a genuine response and replays it against a later session."""

    captured: bytes | None = None

    def capture_hook(self, wire: bytes) -> bytes:
        """Install on device->server to record the first response frame."""
        try:
            message = Message.decode(wire)
        except Exception:
            return wire
        from repro.protocols.messages import IdentificationResponse

        if isinstance(message, IdentificationResponse) and self.captured is None:
            self.captured = wire
        return wire

    def replay(self) -> bytes:
        """The captured frame, ready to re-send."""
        if self.captured is None:
            raise RuntimeError("nothing captured to replay")
        return self.captured


def tamper_stored_helper(store: IdentificationEngine, user_id: str,
                         coordinate: int = 0, delta: int = 1) -> None:
    """Insider attack: corrupt helper data at rest in the server database.

    The robust sketch's tag covers ``(x, s)``, so the victim's next
    identification fails closed instead of producing a key derived from
    attacker-controlled helper data.
    """
    record = store.get(user_id)
    if record is None:
        raise KeyError(f"user {user_id!r} not enrolled")
    helper = HelperData.from_bytes(record.helper_data)
    movements = helper.movements.copy()
    movements[coordinate] = int(movements[coordinate]) + delta
    tampered = HelperData(
        movements=movements, tag=helper.tag, seed=helper.seed
    )
    store.replace_helper(user_id, tampered.to_bytes())
