#!/usr/bin/env python3
"""Concurrent serving — many clients, one engine, one micro-batcher.

The paper makes a single identification cheap; a deployment needs many
of them *at once*.  This example stands up the full PR-1/2/3 stack —
sharded engine, warm verify tables, concurrent service frontend — and
drives it two ways with the same clients and the same database:

1. serial: one request at a time against the bare server;
2. concurrent: closed-loop client threads through the `ServiceFrontend`,
   whose batcher coalesces simultaneous probes into one batched sketch
   scan and fans signature checks out to its verify pool.

Then it abandons a batch of challenges on purpose to show the session
store's bounded-memory behaviour (the `identify-expired` audit trail).

Run:  python examples/concurrent_service.py
"""

import threading

from repro.biometrics import BoundedUniformNoise, UserPopulation
from repro.core.params import SystemParams
from repro.crypto import get_scheme
from repro.engine import IdentificationEngine
from repro.protocols import (
    AuthenticationServer,
    BiometricDevice,
    DuplexLink,
    run_enrollment,
    run_identification,
)
from repro.service import ServiceFrontend

DIMENSION = 128
N_USERS = 40
N_REQUESTS = 60
N_CLIENTS = 6


def main() -> None:
    params = SystemParams.paper_defaults(n=DIMENSION)
    scheme = get_scheme("dsa-1024")
    engine = IdentificationEngine(params, shards=4)
    server = AuthenticationServer(params, scheme, store=engine,
                                  seed=b"svc-example", max_sessions=64)
    population = UserPopulation(params, size=N_USERS,
                                noise=BoundedUniformNoise(params.t), seed=7)
    device = BiometricDevice(params, scheme, seed=b"svc-example-dev")

    print(f"enrolling {N_USERS} users into a {engine.stats().enrolled}-record "
          f"sharded engine…")
    for i, user_id in enumerate(population.user_ids()):
        assert run_enrollment(device, server, DuplexLink(), user_id,
                              population.template(i)).outcome.accepted

    work = [(i % N_USERS, population.genuine_reading(i % N_USERS))
            for i in range(N_REQUESTS)]

    print(f"\n=== serial: {N_REQUESTS} identifications, one at a time ===")
    import time
    start = time.perf_counter()
    for user, reading in work:
        run = run_identification(device, server, DuplexLink(), reading)
        assert run.outcome.user_id == population.user_ids()[user]
    serial_s = time.perf_counter() - start
    print(f"{N_REQUESTS / serial_s:,.0f} identifications/s")

    print(f"\n=== concurrent: {N_CLIENTS} clients through the frontend ===")
    devices = [BiometricDevice(params, scheme, seed=b"svc-cli%d" % c)
               for c in range(N_CLIENTS)]

    def client(c: int, frontend: ServiceFrontend) -> None:
        for user, reading in work[c::N_CLIENTS]:
            run = run_identification(devices[c], frontend, DuplexLink(),
                                     reading)
            assert run.outcome.user_id == population.user_ids()[user]

    with ServiceFrontend(server, batch_window_s=0.03,
                         batch_linger_s=0.003) as frontend:
        threads = [threading.Thread(target=client, args=(c, frontend))
                   for c in range(N_CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        concurrent_s = time.perf_counter() - start
        stats = frontend.stats()
    print(f"{N_REQUESTS / concurrent_s:,.0f} identifications/s "
          f"({stats.mean_batch:.1f} probes coalesced per batched scan)")
    print(f"-> the gap grows with the database: at 100k records the "
          f"batched scan wins >=3x (benchmarks/test_bench_service.py)")

    print("\n=== abandoned challenges stay bounded ===")
    for _ in range(100):
        server.handle_identification_request(
            device.probe_sketch(population.genuine_reading(0)))
        # ...the device never responds.
    expired = len(server.audit_log(kind="identify-expired"))
    print(f"100 challenges abandoned: {server.outstanding_sessions()} "
          f"outstanding (cap 64), {expired} audited as identify-expired")


if __name__ == "__main__":
    main()
