"""The fault plan: which collection faults hit which guest.

All randomness flows through :class:`repro.sim.rng.RngFactory` streams
keyed by ``(purpose, fault-kind, vm-name)``, so decisions are independent
of evaluation order and a plan built from the same seed and rates always
injects byte-identical damage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.errors import FaultSpecError
from repro.sim.rng import RngFactory

#: Collection gives up on a guest after this many dump attempts.
MAX_DUMP_ATTEMPTS = 3

#: Deterministic backoff (simulated ms) before retry attempt 2, 3, …
#: Bounded: the last value repeats if more retries were ever allowed.
BACKOFF_SCHEDULE_MS = (10, 20)


class FaultKind(enum.Enum):
    """The injectable fault classes.

    The first six corrupt the *collected dump* (and must be caught by
    :mod:`repro.core.validate`); the last two break the *collection
    process* itself (and surface in the ``CollectionReport``).
    """

    TRUNCATED_GUEST_DUMP = "truncated-guest-dump"
    DROPPED_MEMSLOT = "dropped-memslot"
    OVERLAPPING_MEMSLOT = "overlapping-memslot"
    CORRUPT_GUEST_PTE = "corrupt-guest-pte"
    TORN_HOST_PTE = "torn-host-pte"
    MISSING_FRAME_TOKEN = "missing-frame-token"
    NON_DEBUG_KERNEL = "non-debug-kernel"
    TRANSIENT_DUMP_FAILURE = "transient-dump-failure"


@dataclass(frozen=True)
class FaultRates:
    """Per-guest-per-collection probability of each fault class."""

    truncated_guest_dump: float = 0.25
    dropped_memslot: float = 0.15
    overlapping_memslot: float = 0.20
    corrupt_guest_pte: float = 0.25
    torn_host_pte: float = 0.25
    missing_frame_token: float = 0.25
    non_debug_kernel: float = 0.15
    transient_dump_failure: float = 0.30

    def rate_of(self, kind: FaultKind) -> float:
        return getattr(self, kind.value.replace("-", "_"))

    @classmethod
    def uniform(cls, rate: float) -> "FaultRates":
        """The same rate for every fault class."""
        if not 0.0 <= rate <= 1.0:
            raise FaultSpecError(f"fault rate must be in [0, 1], got {rate}")
        return cls(**{f.name: rate for f in fields(cls)})

    @classmethod
    def only(cls, kind: FaultKind, rate: float = 1.0) -> "FaultRates":
        """Rates injecting exactly one fault class (for targeted tests)."""
        values = {f.name: 0.0 for f in fields(cls)}
        values[kind.value.replace("-", "_")] = rate
        return cls(**values)

    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready mapping of every per-kind rate."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "FaultRates":
        """Rebuild rates serialized by :meth:`as_dict`.

        Unknown keys are rejected (a typo would silently disarm a fault
        class); missing keys fall back to the defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultSpecError(
                f"unknown fault-rate keys in serialized rates: {unknown}"
            )
        for name, rate in data.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise FaultSpecError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        return cls(**{name: float(rate) for name, rate in data.items()})


DEFAULT_FAULT_RATES = FaultRates()


@dataclass(frozen=True)
class InjectedFault:
    """One fault the plan actually injected during a collection."""

    kind: FaultKind
    vm_name: str
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {
            "kind": self.kind.value,
            "vm_name": self.vm_name,
            "detail": self.detail,
        }


class FaultPlan:
    """Seeded decider for collection faults.

    ``decide(vm_name)`` is a pure function of (seed, rates, vm name): the
    same plan asked twice — or two plans built alike — answer alike.
    """

    def __init__(
        self, seed: int, rates: Optional[FaultRates] = None
    ) -> None:
        self.seed = seed
        self.rates = rates if rates is not None else DEFAULT_FAULT_RATES
        self._rng = RngFactory(seed).derive("faults")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``SEED:RATE`` CLI spec, e.g. ``1337:0.25``.

        ``RATE`` is optional (``1337`` alone uses the default rates).
        """
        seed_part, sep, rate_part = spec.partition(":")
        try:
            seed = int(seed_part)
        except ValueError:
            raise FaultSpecError(
                f"bad fault spec {spec!r}: seed must be an integer "
                "(expected SEED or SEED:RATE)"
            ) from None
        if not sep:
            return cls(seed)
        try:
            rate = float(rate_part)
        except ValueError:
            raise FaultSpecError(
                f"bad fault spec {spec!r}: rate must be a float "
                "(expected SEED:RATE)"
            ) from None
        return cls(seed, FaultRates.uniform(rate))

    # ------------------------------------------------------------------

    def stream(self, *name):
        """A named random stream scoped to this plan (order-independent)."""
        return self._rng.stream(*name)

    def decide(self, vm_name: str) -> List[FaultKind]:
        """Which fault classes hit ``vm_name``, in enum definition order."""
        selected = []
        for kind in FaultKind:
            rate = self.rates.rate_of(kind)
            if rate <= 0.0:
                continue
            draw = self.stream("decide", kind.value, vm_name).random()
            if draw < rate:
                selected.append(kind)
        return selected

    def transient_failures(self, vm_name: str) -> int:
        """How many consecutive dump attempts fail transiently.

        Between 1 and :data:`MAX_DUMP_ATTEMPTS`; drawing the maximum
        exhausts every retry and quarantines the guest.
        """
        stream = self.stream(
            "transient-count", FaultKind.TRANSIENT_DUMP_FAILURE.value,
            vm_name,
        )
        return stream.randrange(1, MAX_DUMP_ATTEMPTS + 1)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form: everything needed to rebuild this plan."""
        return {"seed": self.seed, "rates": self.rates.as_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`as_dict`.

        Round-trip guarantee: the rebuilt plan decides and injects
        byte-identically to the original (same streams, same draws).
        """
        try:
            seed = int(data["seed"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            raise FaultSpecError(
                "serialized fault plan needs an integer 'seed'"
            ) from None
        rates_data = data.get("rates")
        if rates_data is None:
            return cls(seed)
        if not isinstance(rates_data, dict):
            raise FaultSpecError(
                "serialized fault plan 'rates' must be a mapping"
            )
        return cls(seed, FaultRates.from_dict(rates_data))

    def fingerprint_parts(self):
        """Canonical identity for result-cache keys: two plans built from
        the same seed and rates inject byte-identical damage, so they
        may share cached results."""
        return ("FaultPlan", self.seed, self.rates)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, rates={self.rates})"
