"""Decorator-registered catalog of risk measures.

Mirrors :mod:`repro.similarity.registry` (and fapilog's ``plugins/``
layout): a module-level dict, explicit double-registration errors, and
typed lookup failures that list the menu.  Builtins are registered when
:mod:`repro.measures` is imported, so every process (shard workers
included) resolves the same menu.
"""

from __future__ import annotations

from typing import Any, Callable, Type

from ..errors import ConfigError, UnknownMeasureError
from .base import DEFAULT_MEASURE, RiskMeasure

_REGISTRY: dict[str, RiskMeasure] = {}


def register_measure(
    name: str,
) -> Callable[[Type[RiskMeasure]], Type[RiskMeasure]]:
    """Class decorator registering a :class:`RiskMeasure` under ``name``.

    The class is instantiated once at registration (measures are
    stateless singletons); re-registering a name is an error.
    """

    def decorator(cls: Type[RiskMeasure]) -> Type[RiskMeasure]:
        if name in _REGISTRY:
            raise ConfigError(f"risk measure {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls()
        return cls

    return decorator


def get_measure(name: str) -> RiskMeasure:
    """The registered measure instance for ``name``.

    Raises
    ------
    UnknownMeasureError
        For unregistered names; carries the registered menu so the HTTP
        layer can answer 400 with the available measures.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMeasureError(name, tuple(_REGISTRY)) from None


def available_measures() -> tuple[str, ...]:
    """Names of every registered measure, sorted."""
    return tuple(sorted(_REGISTRY))


def measure_catalog() -> list[dict[str, Any]]:
    """JSON-ready menu for the ``/measures`` discovery endpoint."""
    return [
        {
            "name": name,
            "description": _REGISTRY[name].description,
            "default": name == DEFAULT_MEASURE,
        }
        for name in available_measures()
    ]


__all__ = [
    "available_measures",
    "get_measure",
    "measure_catalog",
    "register_measure",
]
