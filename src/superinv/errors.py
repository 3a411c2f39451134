"""Exceptions shared across the engine's layers."""

from __future__ import annotations


class CapExceeded(RuntimeError):
    """Raised when a run would exceed the configured resource caps."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what} would need {size}, above the cap {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class InvalidOptions(ValueError):
    """Raised before any work when a claim's options lie outside the range
    the claim is defined on."""
