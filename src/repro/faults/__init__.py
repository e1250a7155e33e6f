"""Deterministic fault injection for robustness studies.

One shared vocabulary of fault archetypes — oracle timeout, oracle
abstention, transient fetch failure, unreachable users, dropped profile
attributes — produced by a seedable :class:`FaultInjector` and
absorbed by the :mod:`repro.resilience` layer.  The serving durability
layer has its own archetypes (fsync failure, slow disk, torn write,
crash-at-mutation) in :class:`ServiceFaultPlan` /
:class:`ServiceFaultInjector`, consumed by :mod:`repro.service.wal`.
"""

from .injector import (
    FaultInjector,
    FaultPlan,
    FlakyOracle,
    FlakyProfileSource,
    ServiceFaultInjector,
    ServiceFaultPlan,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FlakyOracle",
    "FlakyProfileSource",
    "ServiceFaultInjector",
    "ServiceFaultPlan",
]
