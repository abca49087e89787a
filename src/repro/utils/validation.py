"""Argument-validation helpers.

Centralizing the checks keeps error messages consistent across the package and
keeps the algorithm modules free of boilerplate.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ConfigurationError, SizeError
from repro.utils.bits import is_power_of_two

__all__ = [
    "require",
    "require_power_of_two",
    "require_sizes",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise SizeError(f"{name} must be an int, got {type(value).__name__}")
    if not is_power_of_two(value):
        raise SizeError(f"{name} must be a positive power of two, got {value}")
    return value


def require_sizes(total_keys: int, nprocs: int) -> Tuple[int, int, int]:
    """Validate a ``(N, P)`` problem-size pair and return ``(N, P, n)``.

    ``N`` and ``P`` must be powers of two with ``P <= N`` — the bitonic
    sorting network has one row per key and at least one key must land on
    every processor (the paper's data layouts assume ``n = N/P >= 1``).
    """
    N = require_power_of_two(total_keys, "N (total keys)")
    P = require_power_of_two(nprocs, "P (processors)")
    if P > N:
        raise SizeError(
            f"P={P} processors cannot hold N={N} keys: need at least one key "
            "per processor (P <= N)"
        )
    return N, P, N // P
