"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.params import SystemParams
from repro.crypto.dsa import Dsa
from repro.crypto.dsa_groups import GROUP_512
from repro.crypto.prng import HmacDrbg

# Property tests exercise numpy-heavy code whose first call pays JIT-ish
# warmup (ufunc dispatch, table builds); a wall-clock deadline would flake.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


def pytest_configure(config: pytest.Config) -> None:
    # A worker thread that raises fails its test instead of passing
    # with a warning nobody reads.
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnhandledThreadExceptionWarning")


@pytest.fixture
def small_params() -> SystemParams:
    """Tiny line (ka=8, v=8, t=1, n=16) — exhaustive-friendly."""
    return SystemParams.small_test()


@pytest.fixture
def paper_params() -> SystemParams:
    """Paper geometry (a=100, k=4, v=500, t=100) at a test-sized dimension."""
    return SystemParams.paper_defaults(n=100)


@pytest.fixture
def fast_scheme() -> Dsa:
    """DSA over the 512-bit test group — fast enough for unit tests."""
    return Dsa(GROUP_512)


@pytest.fixture
def drbg() -> HmacDrbg:
    return HmacDrbg(b"test-drbg-seed", personalization=b"tests")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def watchdog():
    """Per-test deadline for concurrency tests: a deadlocked queue or
    lost wakeup raises ``TimeoutError`` inside the test instead of
    hanging the whole suite.  SIGALRM-based (no-op where unavailable);
    the main thread's blocking waits are interruptible by signals."""
    import signal

    if not hasattr(signal, "SIGALRM"):  # non-POSIX fallback: no guard
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError("concurrency test exceeded its 90s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, 90.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
