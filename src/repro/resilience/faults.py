"""Deterministic, seedable fault injection for the sweep stack.

Operational resilience (chunk retry, pool respawn, checkpoint/resume —
see :mod:`repro.mft.executor`) is untestable without a way to *cause*
the failures it defends against.  This module provides injection seams
at the few places real faults enter a sweep:

========================  ==================================================
site                      fired from
========================  ==================================================
``linalg.checked_solve``  :func:`repro.linalg.checked.checked_solve`
``mft.solve``             per frequency in the MFT engine's sweep loop
``mft.batch``             per ω-block in the spectral-batch sweep
``executor.chunk``        the executor worker body (start of every chunk)
``executor.dispatch``     the executor dispatcher, before each submit
========================  ==================================================

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a
seed.  Whether a spec fires at a given site is a *pure function* of
``(seed, site, key, attempt)`` — no mutable counters — so the decision
reproduces identically in the serial loop, forked process workers,
and respawned pools: the same plan injects the same faults every run,
and a retried chunk (``attempt >= spec.attempts``) recomputes clean.

Zero overhead when disabled: the seams call :func:`fire`, whose first
line checks a module-level activation counter and returns — the same
``NULL_RECORDER``-style fast path as :mod:`repro.obs`.  Plans only act
inside an :func:`activate` context, which the executor enters around
each worker chunk; library users never see an injected fault unless
they passed ``faults=`` explicitly.

Injected exceptions derive from :class:`InjectedFault`, which is
deliberately **not** a :class:`~repro.errors.ReproError`: the fallback
chain catches only ``ReproError``, so an injected transient escapes the
per-frequency chain and surfaces at the chunk boundary where the
executor's retry loop — the machinery under test — must recover it.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedPickleError",
    "InjectedSweepKill",
    "InjectedTransientError",
    "InjectedWorkerCrash",
    "NULL_FAULT_PLAN",
    "activate",
    "fire",
]

#: Exit status of a hard-crashed process worker (mimics a SIGKILL'd /
#: OOM-killed child as seen by ``concurrent.futures``).
CRASH_EXIT_CODE: int = 1

FAULT_SITES: tuple[str, ...] = (
    "linalg.checked_solve",
    "mft.solve",
    "mft.batch",
    "executor.chunk",
    "executor.dispatch",
)

FAULT_KINDS: tuple[str, ...] = ("transient", "crash", "slow", "pickle",
                                "kill")


class InjectedFault(Exception):
    """Base class of every injected failure.

    Not a :class:`~repro.errors.ReproError` on purpose — injected
    faults must bypass the numerical fallback chain (which would
    *change the numbers* by refining the grid) and hit the executor's
    chunk-retry machinery instead, which recomputes bit-identically.
    """


class InjectedTransientError(InjectedFault):
    """A transient solve failure that clears on retry."""


class InjectedWorkerCrash(InjectedFault):
    """A worker death.  In a forked process worker the plan calls
    ``os._exit`` instead, so the parent sees a genuine broken pool."""


class InjectedPickleError(InjectedFault):
    """A simulated failure serializing a chunk result back to the
    dispatcher (the exception itself pickles fine — it models the
    *event*, not an actually unpicklable payload)."""


class InjectedSweepKill(InjectedFault):
    """Dispatcher-side kill: aborts the sweep mid-flight, as a host
    interruption would.  Used to exercise checkpoint/resume."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    Parameters
    ----------
    site:
        One of :data:`FAULT_SITES`.
    kind:
        ``"transient"`` raises :class:`InjectedTransientError`;
        ``"crash"`` hard-exits a forked process worker (raises
        :class:`InjectedWorkerCrash` on the serial backend);
        ``"slow"`` sleeps ``seconds`` without raising;
        ``"pickle"`` raises :class:`InjectedPickleError`;
        ``"kill"`` raises :class:`InjectedSweepKill` (dispatch site).
    rate:
        Fraction of matching events that fire, decided by a seeded hash
        of the event key (default 1.0 = always).
    attempts:
        Fire only while the chunk attempt number is below this, so a
        retried chunk computes clean (default 1: first attempt only).
    seconds:
        Sleep duration for ``kind="slow"``.
    match:
        Key/value filter against the event key (e.g.
        ``{"chunk": 16}`` targets the chunk starting at index 16).
    """

    site: str
    kind: str
    rate: float = 1.0
    attempts: int = 1
    seconds: float = 0.0
    match: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(
                f"fault rate must be in [0, 1], got {self.rate}")
        if self.attempts < 1:
            raise ReproError(
                f"fault attempts must be >= 1, got {self.attempts}")
        if self.seconds < 0.0:
            raise ReproError(
                f"fault seconds must be >= 0, got {self.seconds}")


def _u01(seed: int, site: str, key: Mapping[str, Any]) -> float:
    """Deterministic uniform [0, 1) draw for one event."""
    digest = hashlib.sha256()
    digest.update(repr((int(seed), site,
                        sorted(key.items()))).encode())
    return int.from_bytes(digest.digest()[:8], "big") / 2.0 ** 64


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules.

    Picklable (ships to process workers); records the constructing
    process id so ``kind="crash"`` can distinguish "I am a forked
    worker — hard-exit" from "I am in the dispatcher's process — raise".
    The per-process :attr:`fired` log is best-effort test telemetry
    (a hard-crashed worker takes its log with it); the firing *decision*
    never reads it.
    """

    specs: Sequence[FaultSpec] = ()
    seed: int = 0
    parent_pid: int = field(default_factory=os.getpid)
    fired: list[dict[str, Any]] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.specs)

    def fire(self, site: str, attempt: int = 0, **key: Any) -> None:
        """Evaluate every matching spec for one event; may raise/sleep."""
        for spec in self.specs:
            if spec.site != site:
                continue
            if attempt >= spec.attempts:
                continue
            if spec.match is not None and any(
                    key.get(name) != value
                    for name, value in spec.match.items()):
                continue
            if spec.rate < 1.0 and _u01(self.seed, site,
                                        key) >= spec.rate:
                continue
            self.fired.append({"site": site, "kind": spec.kind,
                               "attempt": int(attempt), "key": dict(key)})
            self._act(spec, site, key)

    def _act(self, spec: FaultSpec, site: str,
             key: Mapping[str, Any]) -> None:
        label = f"injected {spec.kind} at {site} ({dict(key)!r})"
        if spec.kind == "transient":
            raise InjectedTransientError(label)
        if spec.kind == "crash":
            if os.getpid() != self.parent_pid:
                # A forked worker: die the way a real crashed worker
                # does, so the dispatcher sees a broken pool rather
                # than a tidy exception.
                os._exit(CRASH_EXIT_CODE)
            raise InjectedWorkerCrash(label)
        if spec.kind == "pickle":
            raise InjectedPickleError(label)
        if spec.kind == "kill":
            raise InjectedSweepKill(label)
        # kind == "slow"
        time.sleep(spec.seconds)


#: Shared disabled plan — the default everywhere.
NULL_FAULT_PLAN = FaultPlan()


_LOCAL = threading.local()
_ACTIVE_LOCK = threading.Lock()
#: Number of threads currently inside an :func:`activate` context.
#: :func:`fire`'s fast path reads this without the lock: when zero —
#: the production case — injection costs one global read per seam.
_ACTIVE: int = 0


@contextmanager
def activate(plan: FaultPlan | None,
             attempt: int = 0) -> Iterator[None]:
    """Arm ``plan`` for the current thread for the duration of the
    ``with`` block (no-op for ``None`` or an empty plan)."""
    global _ACTIVE
    if plan is None or not plan.enabled:
        yield
        return
    previous = getattr(_LOCAL, "state", None)
    _LOCAL.state = (plan, int(attempt))
    with _ACTIVE_LOCK:
        _ACTIVE += 1
    try:
        yield
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE -= 1
        _LOCAL.state = previous


def fire(site: str, **key: Any) -> None:
    """Injection seam: evaluate the thread's active plan at one event.

    The disabled fast path (no plan active anywhere) is a single module
    -global integer check; with plans active on *other* threads only, a
    thread-local read follows.  Called at per-frequency / per-chunk
    granularity, never inside per-segment loops.
    """
    if not _ACTIVE:
        return
    state = getattr(_LOCAL, "state", None)
    if state is None:
        return
    plan, attempt = state
    plan.fire(site, attempt, **key)
