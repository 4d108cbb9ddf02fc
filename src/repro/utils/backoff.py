"""Shared retry-backoff policy: exponential growth, full jitter, and a
deadline-aware cap.

One policy object serves every retry loop in the stack — the study's
transient-fault retries (:func:`repro.core.resilience
.run_guarded`), and the service layer's admission ``Retry-After`` hints
(:mod:`repro.service.quota`) — so the backoff shape is defined, tested,
and tuned in exactly one place.

The shape is AWS-style *full jitter*: the nominal delay grows
exponentially (``base_s * multiplier ** attempt``, clamped to
``cap_s``), and the actual delay is drawn uniformly from
``[0, nominal]``.  Full jitter de-synchronizes retry herds — when many
clients (or many sweep cells) fail at once, fixed exponential delays
make them all come back at the same instant; jittered delays spread the
retry load evenly across the window.

Determinism: the stack never uses Python's randomized ``hash()`` or an
unseeded global RNG for anything that must replay.  The jitter draw
comes from a stable blake2 digest of ``(seed, attempt, salt)``, so a
given policy produces the same delay sequence in every process and
every rerun — the property the resilience tests (and byte-identical
chaos recovery) rely on.  Pass ``jitter=False`` for the legacy fixed
exponential shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["BackoffPolicy", "full_jitter_delay"]


def _unit_draw(seed: int, attempt: int, salt: object) -> float:
    """Deterministic uniform draw in [0, 1) from a stable digest."""
    digest = hashlib.blake2b(
        repr((int(seed), int(attempt), salt)).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


def full_jitter_delay(base_s: float, attempt: int, *,
                      multiplier: float = 2.0,
                      cap_s: float | None = None,
                      seed: int = 0, salt: object = "",
                      remaining_s: float | None = None) -> float:
    """One full-jitter delay: ``U[0, min(cap, base * mult**attempt))``.

    ``remaining_s`` is the deadline-aware cap: a retry loop running
    under a wall-clock budget must never sleep past the budget, so the
    delay is additionally clamped to the time left (and to 0 when the
    budget is already spent).
    """
    policy = BackoffPolicy(base_s=base_s, multiplier=multiplier,
                           cap_s=cap_s, seed=seed)
    return policy.delay(attempt, salt=salt, remaining_s=remaining_s)


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with full jitter and a deadline-aware cap.

    Parameters
    ----------
    base_s:
        Nominal delay of attempt 0; ``0`` disables sleeping entirely.
    multiplier:
        Exponential growth factor per attempt (default 2).
    cap_s:
        Upper bound on the *nominal* delay (``None`` = unbounded) —
        keeps late attempts from sleeping for minutes.
    jitter:
        ``True`` (default) draws the actual delay uniformly from
        ``[0, nominal)``; ``False`` returns the nominal delay itself
        (the legacy fixed-exponential shape).
    seed:
        Root of the deterministic jitter stream; the same (seed,
        attempt, salt) always yields the same delay.
    """

    base_s: float
    multiplier: float = 2.0
    cap_s: float | None = None
    jitter: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise ValueError(f"base_s must be >= 0, got {self.base_s}")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if self.cap_s is not None and self.cap_s < 0:
            raise ValueError(f"cap_s must be >= 0, got {self.cap_s}")

    def nominal(self, attempt: int) -> float:
        """The un-jittered delay for ``attempt`` (0-based), capped."""
        if self.base_s <= 0:
            return 0.0
        delay = self.base_s * self.multiplier ** max(0, attempt)
        if self.cap_s is not None:
            delay = min(delay, self.cap_s)
        return delay

    def delay(self, attempt: int, *, salt: object = "",
              remaining_s: float | None = None) -> float:
        """The actual delay to sleep before retry ``attempt + 1``.

        ``salt`` keys independent jitter streams (e.g. one per sweep
        cell or per tenant) off one policy; ``remaining_s`` clamps the
        delay to a wall-clock budget so a retry loop never sleeps past
        its deadline.
        """
        delay = self.nominal(attempt)
        if delay > 0.0 and self.jitter:
            delay *= _unit_draw(self.seed, attempt, salt)
        if remaining_s is not None:
            delay = min(delay, max(0.0, remaining_s))
        return delay
