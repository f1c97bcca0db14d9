"""Pluggable fast-integer backend for the crypto hot paths.

All field and group arithmetic in this package ultimately bottoms out in a
handful of big-integer operations: modular multiplication chains (the
Jacobian point formulas, window tables), modular exponentiation, modular
inverse, and the one-batched-inversion trick (Montgomery).  This module
abstracts exactly those operations behind a tiny interface with two
implementations:

* **python** — stdlib arbitrary-precision ``int``.  Always present; this is
  the auditable reference every other backend is parity-locked against.
* **gmpy2** — GMP-backed ``gmpy2.mpz``.  Selected automatically when the
  ``gmpy2`` extension is importable; typically 3-10x faster on 256-bit
  field arithmetic because ``mpz`` skips CPython's generic object overhead
  on every multiply/reduce.

The trick that keeps the kernels backend-agnostic: ``mpz`` and ``int``
interoperate under every arithmetic operator, and any expression touching
an ``mpz`` produces an ``mpz``.  So the kernels only need to *lift* one
operand per chain — the field modulus ``p`` (see ``Curve._field``) or a
precomputed table entry — and the whole chain runs at native speed without
changing a single formula.  Results are lowered back to plain ``int`` via
``int(...)`` at the public boundaries (``Point`` coordinates, signature
integers), so outputs are byte-identical across backends.

Selection:

* ``REPRO_CRYPTO_BACKEND=python|gmpy2`` forces a backend at import time
  (forcing ``gmpy2`` when it is not importable raises immediately).
* unset / ``auto`` picks ``gmpy2`` when importable, ``python`` otherwise.
* :func:`set_backend` / :func:`use_backend` switch at runtime (tests,
  and the gmpy2-over-python floor in ``benchmarks/test_bench_crypto.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence


class PythonBackend:
    """Stdlib ``int`` arithmetic — the always-available reference."""

    name = "python"

    def wrap(self, value: int):
        """Lift ``value`` into the backend's fast integer type."""
        return value

    def unwrap(self, value) -> int:
        """Lower a backend integer back to a plain ``int``."""
        return int(value)

    def modmul(self, a, b, modulus) -> int:
        """``a * b % modulus`` as a plain ``int``."""
        return int(a * b % modulus)

    def modexp(self, base, exponent, modulus) -> int:
        """``base ** exponent % modulus`` as a plain ``int``."""
        return pow(int(base), int(exponent), int(modulus))

    def modinv(self, value, modulus) -> int:
        """Inverse of ``value`` modulo ``modulus``; ValueError when none."""
        try:
            return pow(int(value), -1, int(modulus))
        except ValueError as exc:
            raise ValueError(
                f"{int(value)} has no inverse modulo {int(modulus)}") from exc

    def batch_modinv(self, values: Sequence, modulus) -> list[int]:
        """Invert every element with **one** modular inversion total.

        Montgomery's trick: invert the running product of all values, then
        peel off the individual inverses with two multiplications each.
        Raises ``ValueError`` if any element is not invertible (the error
        then names the product, not the offending element — callers
        guarantee invertibility).  This is the shared helper behind
        ``Curve._batch_to_affine`` and the deferred window-table builds in
        ``Curve.multi_multiply``.
        """
        if not values:
            return []
        m = self.wrap(modulus)
        prefix = []
        acc = self.wrap(1)
        for value in values:
            acc = acc * value % m
            prefix.append(acc)
        inv = self.wrap(self.modinv(acc, m))
        out: list[int] = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = int(inv * (prefix[i - 1] if i else 1) % m)
            inv = inv * values[i] % m
        return out


class Gmpy2Backend(PythonBackend):
    """GMP-backed ``mpz`` arithmetic via the ``gmpy2`` extension."""

    name = "gmpy2"

    def __init__(self, module) -> None:
        self._gmpy2 = module
        self._mpz = module.mpz
        self._powmod = module.powmod
        self._invert = module.invert

    def wrap(self, value: int):
        """Lift ``value`` into an ``mpz``."""
        return self._mpz(value)

    def modmul(self, a, b, modulus) -> int:
        """``a * b % modulus`` through ``mpz``, lowered to ``int``."""
        return int(self._mpz(a) * b % modulus)

    def modexp(self, base, exponent, modulus) -> int:
        """``powmod`` through GMP, lowered to ``int``."""
        return int(self._powmod(self._mpz(base), exponent, modulus))

    def modinv(self, value, modulus) -> int:
        """GMP ``invert``; ValueError (not ZeroDivisionError) when none."""
        try:
            return int(self._invert(self._mpz(value), modulus))
        except ZeroDivisionError as exc:
            raise ValueError(
                f"{int(value)} has no inverse modulo {int(modulus)}") from exc


_BACKENDS: dict[str, PythonBackend] = {"python": PythonBackend()}

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover
    _gmpy2 = None
else:  # pragma: no cover
    _BACKENDS["gmpy2"] = Gmpy2Backend(_gmpy2)

#: Environment variable forcing the backend choice at import time.
ENV_VAR = "REPRO_CRYPTO_BACKEND"


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this interpreter."""
    return tuple(_BACKENDS)


def _resolve(name: str) -> PythonBackend:
    key = name.strip().lower()
    if key in ("", "auto"):
        return _BACKENDS.get("gmpy2", _BACKENDS["python"])
    if key not in ("python", "gmpy2"):
        raise ValueError(
            f"unknown crypto backend {name!r} (expected python|gmpy2|auto)")
    backend = _BACKENDS.get(key)
    if backend is None:
        raise ImportError(
            f"crypto backend {key!r} requested but gmpy2 is not importable")
    return backend


_active: PythonBackend = _resolve(os.environ.get(ENV_VAR, "auto"))


def active() -> PythonBackend:
    """The currently selected backend."""
    return _active


def set_backend(name: str) -> PythonBackend:
    """Select a backend by name (``python``/``gmpy2``/``auto``)."""
    global _active
    _active = _resolve(name)
    return _active


@contextmanager
def use_backend(name: str) -> Iterator[PythonBackend]:
    """Temporarily select a backend (tests and the bench shootout)."""
    global _active
    previous = _active
    _active = _resolve(name)
    try:
        yield _active
    finally:
        _active = previous


# -- module-level conveniences (route through the active backend) ----------

def wrap(value: int):
    """Lift ``value`` into the active backend's fast integer type."""
    return _active.wrap(value)


def modmul(a, b, modulus) -> int:
    """``a * b % modulus`` on the active backend, as a plain ``int``."""
    return _active.modmul(a, b, modulus)


def modexp(base, exponent, modulus) -> int:
    """``base ** exponent % modulus`` on the active backend."""
    return _active.modexp(base, exponent, modulus)


def modinv(value, modulus) -> int:
    """Modular inverse on the active backend; ValueError when none."""
    return _active.modinv(value, modulus)


def batch_modinv(values: Sequence, modulus) -> list[int]:
    """Montgomery batch inversion on the active backend."""
    return _active.batch_modinv(values, modulus)
