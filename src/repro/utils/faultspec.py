"""The fault-rate vocabulary the kernel and host fault plans share.

:class:`repro.gpu.faults.FaultPlan` and
:class:`repro.core.hostfaults.HostFaultPlan` each name their own fault
kinds (an :class:`enum.Enum` whose values double as spec keywords) and
draw their own faults; both are a :class:`RatePlan`: a seeded set of
:class:`FaultSpec` rates, at most one per kind, parsed from the same
``"kind=rate,…"`` spec.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from repro.errors import FaultConfigError


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with its per-opportunity trigger probability, in
    [0, 1]; each plan says what one opportunity is."""

    kind: enum.Enum
    rate: float


class RatePlan:
    """A seeded set of :class:`FaultSpec` rates, at most one per kind.

    A subclass sets :attr:`KINDS`, the enum of its fault kinds, and
    :attr:`NOUN`, what its error messages call one of them.
    """

    KINDS: type[enum.Enum]
    NOUN = "fault"

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._rates: dict[enum.Enum, float] = {}
        for s in self.specs:
            if not 0.0 <= s.rate <= 1.0:
                raise FaultConfigError(
                    f"{self.NOUN} rate must be in [0, 1], got {s.rate} "
                    f"for {s.kind.value!r}")
            if s.kind in self._rates:
                raise FaultConfigError(
                    f"duplicate {self.NOUN} kind {s.kind.value!r} in plan")
            self._rates[s.kind] = s.rate

    @classmethod
    def parse(cls, text: str, seed: int = 0, **kwargs):
        """Parse a spec like ``"tear=0.3,stuck=0.1,abort"``.

        Each comma-separated item is ``kind=rate``; a bare ``kind``
        means rate 1.0.  Unknown kinds, bad or out-of-range rates and
        an empty spec raise :class:`~repro.errors.FaultConfigError`.
        Extra keyword arguments pass through to the constructor.
        """
        known = {k.value: k for k in cls.KINDS}
        specs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, value = item.partition("=")
            name = name.strip()
            if name not in known:
                raise FaultConfigError(
                    f"unknown {cls.NOUN} kind {name!r}; "
                    f"known: {sorted(known)}")
            try:
                rate = float(value) if value else 1.0
            except ValueError:
                raise FaultConfigError(
                    f"bad rate {value!r} for {cls.NOUN} {name!r}") from None
            specs.append(FaultSpec(known[name], rate))
        if not specs:
            raise FaultConfigError(f"empty {cls.NOUN} spec {text!r}")
        return cls(specs, seed=seed, **kwargs)

    def rate(self, kind: enum.Enum) -> float:
        return self._rates.get(kind, 0.0)

    def describe(self) -> str:
        body = ", ".join(f"{s.kind.value}={s.rate:g}" for s in self.specs)
        return f"{body} (seed {self.seed})"
