"""Exceptions shared across modules."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """A finite search (grid enumeration, tautology branch budget) would exceed
    its budget.

    Raised instead of silently truncating: callers must either raise the
    budget deliberately or shrink the problem.
    """


class AtomKindError(TypeError, ValueError):
    """An atom of a kind the semantics at hand gives no meaning to."""


class UnboundVariableError(KeyError, ValueError):
    """A variable occurs in an expression but the evaluation does not bind it."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"unbound variable {self.name!r}"
