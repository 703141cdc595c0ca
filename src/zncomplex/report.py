"""The one result type of every check: ok, or the violations and a witness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Report:
    """Outcome of a check; truthy exactly when it passed.

    violations holds one human-readable line per problem found.  witness is
    the evidence in the shape the check documents, or None.
    """

    ok: bool
    violations: tuple[str, ...] = ()
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def of(cls, violations, witness=None) -> Report:
        """The report that passes exactly when there are no violations."""
        violations = tuple(violations)
        return cls(not violations, violations, witness)
