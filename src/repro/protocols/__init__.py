"""Protocol layer: actors, messages, transport, and runners.

Implements the paper's three figures:

* Fig. 1 — ``UserEnro`` enrollment;
* Fig. 2 — the *normal approach* O(N) identification (baseline);
* Fig. 3 — the proposed constant-cost identification;

plus the 1:1 verification mode the timing comparison references, and the
Section VI adversary model (eavesdrop / tamper / replay simulations).
"""

from repro.protocols.adversary import (
    Eavesdropper,
    HelperDataTamperer,
    ReplayAttacker,
    tamper_stored_helper,
)
from repro.protocols.database import UserRecord
from repro.protocols.device import BiometricDevice, signed_payload
from repro.protocols.messages import (
    BaselineChallengeBatch,
    BaselineIdentificationRequest,
    BaselineResponseBatch,
    EnrollmentAck,
    EnrollmentSubmission,
    IdentificationChallenge,
    IdentificationDecline,
    IdentificationOutcome,
    IdentificationRequest,
    IdentificationResponse,
    Message,
    VerificationChallenge,
    VerificationOutcome,
    VerificationRequest,
    VerificationResponse,
)
from repro.protocols.runners import (
    ProtocolRun,
    run_baseline_identification,
    run_enrollment,
    run_identification,
    run_verification,
)
from repro.protocols.server import AuditEvent, AuthenticationServer
from repro.protocols.sessions import EvictedSession, PendingSession, SessionStore
from repro.protocols.simulation import (
    ClassStats,
    SimulationReport,
    TrafficMix,
    WorkloadSimulator,
)
from repro.protocols.transport import Channel, ChannelStats, DuplexLink, LatencyModel

__all__ = [
    "Eavesdropper",
    "HelperDataTamperer",
    "ReplayAttacker",
    "tamper_stored_helper",
    "UserRecord",
    "BiometricDevice",
    "signed_payload",
    "BaselineChallengeBatch",
    "BaselineIdentificationRequest",
    "BaselineResponseBatch",
    "EnrollmentAck",
    "EnrollmentSubmission",
    "IdentificationChallenge",
    "IdentificationDecline",
    "IdentificationOutcome",
    "IdentificationRequest",
    "IdentificationResponse",
    "Message",
    "VerificationChallenge",
    "VerificationOutcome",
    "VerificationRequest",
    "VerificationResponse",
    "ProtocolRun",
    "run_baseline_identification",
    "run_enrollment",
    "run_identification",
    "run_verification",
    "AuditEvent",
    "AuthenticationServer",
    "EvictedSession",
    "PendingSession",
    "SessionStore",
    "ClassStats",
    "SimulationReport",
    "TrafficMix",
    "WorkloadSimulator",
    "Channel",
    "ChannelStats",
    "DuplexLink",
    "LatencyModel",
]
