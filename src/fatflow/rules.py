"""Named value rules shared by every validated input.

Each rule states its condition and its message once. A class applies a rule
to one of its own fields and raises its own error type, so the message names
that field: `POSITIVE.check("link_capacity", nan, TopologyError)` raises
TopologyError("link_capacity must be finite and > 0, got nan"). A
parameter class or a `Flow` declares each field's rule with `setting`, and
`check_fields` applies them all.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Rule:
    text: str  # completes "must be ..."
    holds: Callable[[Any], bool]

    def passes(self, value) -> bool:
        """`holds`, failed by a value it cannot compare (None, a string)."""
        try:
            return self.holds(value)
        except TypeError:
            return False

    def check(self, name: str, value, error: type[Exception]) -> None:
        """Raise `error` naming `name` unless `value` satisfies the rule."""
        if not self.passes(value):
            raise error(f"{name} must be {self.text}, got {value!r}")

    def or_none(self) -> Rule:
        """The same rule, with None allowed."""
        return Rule(f"none or {self.text}",
                    lambda v: v is None or self.holds(v))


def one_of(options: tuple[str, ...]) -> Rule:
    return Rule("one of " + "|".join(options), lambda v: v in options)


def distinct_list(item: Optional[Rule] = None) -> Rule:
    """A non-empty list without repeats whose items satisfy `item`, if any."""
    text = "a non-empty list without repeats"
    return Rule(text + (f", each {item.text}" if item else ""),
                lambda v: bool(v) and len(set(v)) == len(v)
                and (item is None or all(map(item.holds, v))))


POSITIVE = Rule("finite and > 0", lambda v: math.isfinite(v) and v > 0)
NON_NEGATIVE = Rule("finite and >= 0", lambda v: math.isfinite(v) and v >= 0)
FRACTION = Rule("finite and in (0, 1]", lambda v: 0 < v <= 1)
OPEN_FRACTION = Rule("finite and in (0, 1)", lambda v: 0 < v < 1)
# `type(v) is int`, not isinstance: a bool is an int subclass
COUNT = Rule("an integer >= 0", lambda v: type(v) is int and v >= 0)
EVEN_K = Rule("an even integer >= 2",
              lambda v: type(v) is int and v >= 2 and v % 2 == 0)
NON_EMPTY = Rule("non-empty", bool)


def setting(default, help: str, rule: Optional[Rule] = None, **names):
    """One parameter field: its default (a callable makes it a factory),
    help text, the rule its value must satisfy, and any other names (`cli`
    reads a file `key` and a `flag` that differ from the field name)."""
    kind = "default_factory" if callable(default) else "default"
    return dataclasses.field(**{kind: default},
                             metadata=dict(help=help, rule=rule, **names))


def setting_of(owner: type, name: str, note: str = ""):
    """`owner`'s field `name` again, with `note` added to its help text."""
    f = owner.__dataclass_fields__[name]
    return setting(f.default, f.metadata["help"] + note, f.metadata["rule"])


@functools.cache
def _declared(cls: type) -> tuple[tuple[str, Rule], ...]:
    """(name, rule) of each of `cls`'s fields that declares a rule."""
    return tuple((f.name, f.metadata["rule"]) for f in dataclasses.fields(cls)
                 if f.metadata.get("rule") is not None)


def check_fields(obj, error: type[Exception], suffix: str = "",
                 prefix: str = "") -> None:
    """Raise `error` naming the first field, between `prefix` and `suffix`,
    whose value breaks its declared rule."""
    for name, rule in _declared(type(obj)):
        if not rule.passes(getattr(obj, name)):  # the message only on failure
            rule.check(prefix + name + suffix, getattr(obj, name), error)
