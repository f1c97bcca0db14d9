"""Per-layer metrics from a traced run: generator legs joined to server spans.

Each operation's wire legs are timed by the generator; the server
records spans around the public calls into each layer (see
``server.py``).  A leg is joined to the frontend call that served it by
its trace id, its role and time containment; the frontend call is joined
to the protocols call that did the work by request object identity.
Per leg, with the leg's round trip time RTT::

    RTT = transport + residence            (net: RTT minus frontend call)
    residence = wait + protocols call      (service: queue, batch, hops)
    protocols call = self + engine + crypto children

Legs are named by role, not message type, so every metric is measured
on every workload: ``open`` is the request that opens an exchange
(identification, verification request or enrollment), ``respond`` the
challenge response.  Layer call durations (engine, crypto) count each
span once, however many operations it served.
"""

from __future__ import annotations

import collections

import numpy as np

FRONTEND = "ServiceFrontend."
PROTOCOLS = "AuthenticationServer."
ENGINE_CALLS = {"IdentificationEngine.find_by_sketch_batch",
                "IdentificationEngine.get", "IdentificationEngine.add"}
SCAN = "IdentificationEngine.find_by_sketch_batch"
ADD = "IdentificationEngine.add"
JOURNAL = "EnrollmentJournal.append_entry"
CRYPTO_CALLS = {"VerifyTableCache.verify", "VerifyTableCache.verify_batch"}

#: Frontend handlers per leg role.
ROLE_HANDLERS = {
    "open": {"handle_identification_request", "handle_verification_request",
             "handle_enrollment"},
    "respond": {"handle_identification_response",
                "handle_identification_decline",
                "handle_verification_response"},
}

#: Protocols handlers whose call counts are reported.
COUNTED_HANDLERS = {
    "identification_batch": "handle_identification_batch",
    "identification_response": "handle_identification_response",
    "verification_request": "handle_verification_request",
    "verification_response_batch": "handle_verification_response_batch",
    "enrollment": "handle_enrollment",
}


def pct(values, q: float) -> float:
    """The ``q``-th percentile of raw samples by nearest rank (so a failed
    operation counted as an infinite latency stays infinite), ``0.0``
    when there are none."""
    return float(np.percentile(values, q, method="higher")) \
        if len(values) else 0.0


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _ms(seconds: float) -> float:
    return seconds * 1e3


class _Joiner:
    def __init__(self, spans: list[dict]) -> None:
        self.frontend: dict[str, list[dict]] = collections.defaultdict(list)
        self.by_request: dict[int, list[dict]] = collections.defaultdict(list)
        self.children: dict[int, list[dict]] = collections.defaultdict(list)
        for span in spans:
            name = span["name"]
            if name.startswith(FRONTEND) and span["trace"]:
                self.frontend[span["trace"]].append(span)
            elif name.startswith(PROTOCOLS):
                for request in span["requests"]:
                    self.by_request[request].append(span)
            if span["parent"]:
                self.children[span["parent"]].append(span)

    def frontend_call(self, trace: str, role: str, sent: float,
                      received: float) -> dict | None:
        handlers = ROLE_HANDLERS[role]
        for span in self.frontend.get(trace, ()):
            if (span["name"][len(FRONTEND):] in handlers
                    and sent <= span["start"] and span["end"] <= received):
                return span
        return None

    def protocols_call(self, frontend: dict) -> dict | None:
        for span in self.by_request.get(frontend["requests"][0], ()):
            if (frontend["start"] <= span["start"]
                    and span["end"] <= frontend["end"]):
                return span
        return None


def leg_metrics(ops, spans: list[dict]) -> dict[str, float]:
    """Net, service, protocols, engine and crypto metrics per leg role."""
    joiner = _Joiner(spans)
    samples = {role: collections.defaultdict(list) for role in ROLE_HANDLERS}
    engine: dict[int, dict] = {}
    crypto: dict[int, dict] = {}
    for op in ops:
        trace = op.trace.hex()
        for role, sent, received in op.legs:
            rtt = received - sent
            mine = samples[role]
            mine["rtt"].append(rtt)
            frontend = joiner.frontend_call(trace, role, sent, received)
            if frontend is None:
                continue
            residence = _dur(frontend)
            mine["transport"].append(rtt - residence)
            mine["residence"].append(residence)
            call = joiner.protocols_call(frontend)
            if call is None:
                continue
            mine["wait"].append(residence - _dur(call))
            children = joiner.children.get(call["id"], [])
            mine["self"].append(_dur(call) - sum(map(_dur, children)))
            for child in children:
                if role == "open" and child["name"] in ENGINE_CALLS:
                    engine[child["id"]] = child
                elif role == "respond" and child["name"] in CRYPTO_CALLS:
                    crypto[child["id"]] = child
    metrics: dict[str, float] = {}
    for role, mine in samples.items():
        metrics.update({
            f"net.{role}.rtt_p50_ms": _ms(pct(mine["rtt"], 50)),
            f"net.{role}.rtt_p99_ms": _ms(pct(mine["rtt"], 99)),
            f"net.{role}.transport_p50_ms": _ms(pct(mine["transport"], 50)),
            f"service.{role}.residence_p50_ms":
                _ms(pct(mine["residence"], 50)),
            f"service.{role}.wait_p50_ms": _ms(pct(mine["wait"], 50)),
            f"service.{role}.wait_p99_ms": _ms(pct(mine["wait"], 99)),
            f"protocols.{role}.self_p50_ms": _ms(pct(mine["self"], 50)),
        })
    calls = [_dur(span) for span in engine.values()]
    metrics["engine.open.call_p50_ms"] = _ms(pct(calls, 50))
    metrics["engine.open.call_p99_ms"] = _ms(pct(calls, 99))
    metrics["engine.open.per_item_ms"] = _ms(_per_item(engine.values()))
    scans = [span for span in engine.values() if span["name"] == SCAN]
    probes = sum(span["items"] for span in scans)
    metrics["engine.scan.candidates_per_probe"] = \
        sum(span["out"] for span in scans) / probes if probes else 0.0
    metrics["crypto.respond.per_item_ms"] = _ms(_per_item(crypto.values()))
    return metrics


def _per_item(spans) -> float:
    spans = list(spans)
    items = sum(span["items"] for span in spans)
    return sum(map(_dur, spans)) / items if items else 0.0


def window_metrics(spans: list[dict], gc_pauses: list[dict], start: float,
                   end: float) -> dict[str, float]:
    """Call counts, batch sizes and GC pauses between ``start`` and ``end``."""
    inside = [span for span in spans if start <= span["start"] < end]
    by_name: dict[str, list[dict]] = collections.defaultdict(list)
    for span in inside:
        by_name[span["name"]].append(span)
    metrics: dict[str, float] = {}
    for label, handler in COUNTED_HANDLERS.items():
        metrics[f"protocols.{label}.calls"] = \
            float(len(by_name[PROTOCOLS + handler]))
    for label, handler in (("identify", "handle_identification_batch"),
                           ("verify_resp",
                            "handle_verification_response_batch")):
        batches = [span["items"] for span in by_name[PROTOCOLS + handler]]
        metrics[f"service.{label}.batch_mean"] = \
            float(np.mean(batches)) if batches else 0.0
    pauses = [pause for pause in gc_pauses if start <= pause["start"] < end]
    metrics["server.gc_gen2_count"] = float(
        sum(1 for pause in pauses if pause["generation"] == 2))
    metrics["server.gc_max_pause_ms"] = \
        _ms(max((_dur(pause) for pause in pauses), default=0.0))
    return metrics


def write_metrics(spans: list[dict]) -> dict[str, float]:
    """Engine writes over every recorded span: the set-up's enrollments
    make them present on every workload."""
    adds = [_dur(span) for span in spans if span["name"] == ADD]
    journal = sum(_dur(span) for span in spans if span["name"] == JOURNAL)
    return {
        "engine.add.p50_ms": _ms(pct(adds, 50)),
        "engine.add.p99_ms": _ms(pct(adds, 99)),
        "engine.journal_share": journal / sum(adds) if adds else 0.0,
    }
