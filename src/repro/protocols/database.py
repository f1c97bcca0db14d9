"""The enrollment record the authentication server stores.

Exactly what the paper's enrollment protocol hands the server — the
triple ``(ID, pk, P)``; the private key never reaches this module by
construction.  The store that holds these records and searches their
sketches is :class:`~repro.engine.engine.IdentificationEngine`.
Everything in a record is public helper data: the store needs
integrity protection in deployment (an insider rewriting it is exactly
the Section VI adversary; the robust sketch makes such rewrites fail
closed, as the adversary tests show), but no confidentiality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.extractor import HelperData


@dataclass(frozen=True)
class UserRecord:
    """One stored enrollment: ``(ID, pk, P)``."""

    user_id: str
    verify_key: bytes
    helper_data: bytes  # canonical HelperData encoding

    def helper(self) -> HelperData:
        """Parse the stored helper-data blob."""
        return HelperData.from_bytes(self.helper_data)
