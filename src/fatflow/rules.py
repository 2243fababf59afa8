"""Named value rules shared by every validated input.

Each rule states its condition and its message once. A class applies a rule
to one of its own fields and raises its own error type, so the message names
that field: `POSITIVE.check("link_capacity", nan, TopologyError)` raises
TopologyError("link_capacity must be finite and > 0, got nan").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Rule:
    text: str  # completes "must be ..."
    holds: Callable[[Any], bool]

    def check(self, name: str, value, error: type[Exception]) -> None:
        """Raise `error` naming `name` unless `value` satisfies the rule."""
        if not self.holds(value):
            raise error(f"{name} must be {self.text}, got {value!r}")

    def or_none(self) -> Rule:
        """The same rule, with None allowed."""
        return Rule(f"none or {self.text}",
                    lambda v: v is None or self.holds(v))


POSITIVE = Rule("finite and > 0", lambda v: math.isfinite(v) and v > 0)
NON_NEGATIVE = Rule("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
FRACTION = Rule("finite and in (0, 1]", lambda v: 0 < v <= 1)
OPEN_FRACTION = Rule("finite and in (0, 1)", lambda v: 0 < v < 1)
COUNT = Rule("an integer >= 0", lambda v: isinstance(v, int) and v >= 0)
EVEN_K = Rule("an even integer >= 2",
              lambda v: isinstance(v, int) and v >= 2 and v % 2 == 0)
NON_EMPTY = Rule("non-empty", bool)
