"""Randomized Schnorr batch verification in five minutes.

The identification protocol ends every lookup in a Schnorr check
``s*G == R + e*Q``.  Because that equation is linear, k checks collapse
into ONE multi-scalar multiplication under fresh random 128-bit weights
— and a forged member cannot hide: the aggregate breaks, bisection
isolates exactly the bad indices, and the honest rest still verify.

Run: PYTHONPATH=src python examples/batch_verification.py
"""

import time

from repro.crypto.signatures import VerifyTableCache, get_scheme

K = 24


def main() -> None:
    scheme = get_scheme("schnorr-p-256")
    message = b"challenge||nonce"
    keypairs = [scheme.keygen_from_seed(b"user-%02d" % i * 4)
                for i in range(K)]
    items = [(kp.verify_key, message,
              scheme.sign(kp.signing_key, message)) for kp in keypairs]
    tables = [scheme.precompute(kp.verify_key) for kp in keypairs]

    print(f"=== {K} honest signatures: one multi-scalar check ===")
    start = time.perf_counter()
    verdicts = scheme.verify_batch(items, tables=tables)
    batch_s = time.perf_counter() - start
    assert verdicts == [True] * K
    start = time.perf_counter()
    for (key, msg, sig), table in zip(items, tables):
        assert scheme.verify(key, msg, sig, table=table)
    single_s = time.perf_counter() - start
    print(f"batched {batch_s * 1e3:.1f} ms vs one-by-one "
          f"{single_s * 1e3:.1f} ms  (x{single_s / batch_s:.1f})")

    print(f"\n=== a forged signature cannot hide in the batch ===")
    forged = list(items)
    key, msg, sig = forged[7]
    forged[7] = (key, msg, sig[:-1] + bytes([sig[-1] ^ 1]))
    verdicts = scheme.verify_batch(forged, tables=tables)
    print(f"verdicts: {verdicts.count(True)} accepted, "
          f"forged index flagged: {verdicts.index(False)} (expected 7)")
    assert verdicts == [i != 7 for i in range(K)]

    print(f"\n=== the protocol layer reaches it through the table cache ===")
    cache = VerifyTableCache(capacity=64)
    cache.verify_batch(scheme, items)   # cold: keys seen once
    cache.verify_batch(scheme, items)   # tables built, batch runs warm
    stats = cache.stats()
    print(f"cache: {stats['batch_calls']} batch calls, "
          f"{stats['batch_items']} signatures, "
          f"{stats['batch_warm']} against warm tables")
    print("-> the service frontend coalesces concurrent verification "
          "responses\n   into exactly these calls (the verify-10k workload "
          "of bench/run.py)")


if __name__ == "__main__":
    main()
