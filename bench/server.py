"""The server process the benchmark drives: the stack ``repro serve`` builds.

``bench/run.py`` starts this file once per set-up; it is not meant to be
run by hand.  It builds an in-memory :class:`IdentificationEngine` filled
with uniform filler sketches, an :class:`AuthenticationServer`, a
:class:`ServiceFrontend` and a :class:`NetworkServer`, taking every knob
from ``repro.cli.build_parser().parse_args(["serve", ...])`` so the bench
follows the CLI defaults instead of copying them.  The genuine pool
identities are enrolled over the wire by the load generator.

Protocol on the standard streams (one line each):

* stdout ``READY <host> <port>`` once the listener is bound;
* stdin ``trace 1`` / ``trace 0`` switch span recording on and off
  (``--trace`` only; without it no wrapper is installed at all) and
  answer ``OK``;
* stdin ``cache`` answers ``CACHE <json>`` with the verify-table cache
  counters;
* stdin ``dump <path>`` writes the recorded spans and GC pauses as JSON
  and answers ``DUMPED``;
* end of stdin shuts the stack down and exits.

With ``--trace`` the public methods of each layer are wrapped at class
level before the stack is built, so spans are timed from outside the
program: each span holds its name, start and end (``time.monotonic``,
the clock the load generator uses), thread, parent (a thread-local
stack), the request trace id bound by the transport, the ``id()`` of the
request objects it handled, and its item counts.  Spans stay in memory
until ``dump``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import sys
import threading
import time

import numpy as np

from repro import obs
from repro.cli import _params_from, build_parser
from repro.core.extractor import HelperData
from repro.core.params import SystemParams
from repro.crypto.signatures import VerifyTableCache, get_scheme
from repro.engine.engine import IdentificationEngine
from repro.engine.journal import EnrollmentJournal, journal_path
from repro.engine.lifecycle import ENTRY_FORMAT_TYPED
from repro.net.server import NetworkServer
from repro.protocols.database import UserRecord
from repro.protocols.server import AuthenticationServer
from repro.service.frontend import ServiceFrontend


def _describe_handler(args, result) -> tuple[list[int], int, int]:
    """A ``handle_*`` call's request ids: one message, or a batch list."""
    first = args[0]
    if isinstance(first, (list, tuple)):
        return [id(request) for request in first], len(first), 0
    return [id(first)], 1, 0


#: ``(class, method) -> describe(args, result) -> (request ids, items, out)``
#: for every method the traced run wraps, besides the ``handle_*`` surfaces.
_LAYER_METHODS = {
    (IdentificationEngine, "find_by_sketch_batch"):
        lambda args, result: ([], len(args[0]), sum(map(len, result))),
    (IdentificationEngine, "get"): lambda args, result: ([], 1, 0),
    (IdentificationEngine, "add"): lambda args, result: ([], 1, 0),
    (EnrollmentJournal, "append_entry"): lambda args, result: ([], 1, 0),
    (VerifyTableCache, "verify"): lambda args, result: ([], 1, 0),
    (VerifyTableCache, "verify_batch"):
        lambda args, result: ([], len(args[1]), 0),
}


class SpanRecorder:
    """Class-level method wrappers that record spans while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self.gc_pauses: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_start = 0.0

    def install(self) -> None:
        for cls in (ServiceFrontend, AuthenticationServer):
            for name in dir(cls):
                if name.startswith("handle_"):
                    self._wrap(cls, name, _describe_handler)
        for (cls, name), describe in _LAYER_METHODS.items():
            self._wrap(cls, name, describe)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, cls, name: str, describe) -> None:
        method = getattr(cls, name)
        label = f"{cls.__name__}.{name}"
        recorder = self

        @functools.wraps(method)
        def wrapper(obj, *args, **kwargs):
            if not recorder.enabled:
                return method(obj, *args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            trace = obs.tracer.current()
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = method(obj, *args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            request_ids, items, out = describe(args, result)
            recorder.spans.append({
                "id": span_id, "parent": parent, "name": label,
                "start": start, "end": end,
                "thread": threading.get_ident(),
                "trace": trace.hex() if trace else None,
                "requests": request_ids, "items": items, "out": out,
            })
            return result

        setattr(cls, name, wrapper)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.monotonic()
        elif self.enabled:
            self.gc_pauses.append({
                "start": self._gc_start, "end": time.monotonic(),
                "generation": info["generation"]})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "gc": self.gc_pauses}, handle)


def filler_records(params: SystemParams, count: int,
                   rng: np.random.Generator) -> list[UserRecord]:
    """Uniform sketches that no probe matches: the enrolled population
    beyond the pool, at the cost a real stranger's record has."""
    half = params.interval_width // 2
    movements = rng.integers(-half, half + 1, size=(count, params.n),
                             dtype=np.int64)
    return [
        UserRecord(user_id=f"filler-{i}", verify_key=b"",
                   helper_data=HelperData(movements=movements[i], tag=b"",
                                          seed=b"").to_bytes())
        for i in range(count)
    ]


def serve_config(scheme: str, journal_dir: str = ""):
    """``repro serve``'s parsed arguments at n=128, and their parameters."""
    serve = ["serve", "-n", "128", "--scheme", scheme]
    if journal_dir:
        serve += ["--journal-dir", journal_dir]
    args = build_parser().parse_args(serve)
    return args, _params_from(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--filler", type=int, required=True,
                        help="uniform filler records to preload")
    parser.add_argument("--scheme", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal-dir", default="",
                        help="journal enrollments made while serving here")
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args(argv)
    args, params = serve_config(opts.scheme, opts.journal_dir)

    recorder = SpanRecorder()
    if opts.trace:
        recorder.install()
        recorder.enabled = True
    # The wiring below mirrors `repro.cli._cmd_serve` (in-memory engine,
    # frontend, no follower); a change there must be made here too.
    obs.configure(tracing_enabled=not args.no_trace,
                  events_path=args.events or None)
    engine = IdentificationEngine(params, shards=args.shards,
                                  workers=args.workers)
    engine.add_many(filler_records(params, opts.filler,
                                   np.random.default_rng(opts.seed)))
    if args.journal_dir:
        # The filler is the store's checkpoint; the journal covers what
        # is enrolled while serving, as after `repro compact`.
        engine.attach_journal(EnrollmentJournal(
            journal_path(args.journal_dir), params=params,
            base=engine.journal_seq(), entry_format=ENTRY_FORMAT_TYPED))
    server = AuthenticationServer(params, get_scheme(args.scheme),
                                  store=engine)
    frontend = ServiceFrontend(
        server, max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        batch_linger_s=args.linger_ms / 1e3,
        workers=args.frontend_workers,
        submit_timeout_s=args.submit_timeout_ms / 1e3,
        adaptive=args.adaptive,
        latency_target_s=args.latency_target_ms / 1e3
        if args.latency_target_ms is not None else None)
    net = NetworkServer(frontend, host=args.host, port=args.port,
                        handler_threads=args.handler_threads)
    try:
        host, port = net.start()
        print(f"READY {host} {port}", flush=True)
        for line in sys.stdin:
            command, _, operand = line.strip().partition(" ")
            if command == "trace":
                recorder.enabled = opts.trace and operand == "1"
                print("OK", flush=True)
            elif command == "cache":
                stats = engine.key_tables.stats().as_dict()
                print(f"CACHE {json.dumps(stats)}", flush=True)
            elif command == "dump":
                recorder.enabled = False
                recorder.dump(operand)
                print("DUMPED", flush=True)
    finally:
        net.close()
        frontend.close()
        engine.close()
        obs.events.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
