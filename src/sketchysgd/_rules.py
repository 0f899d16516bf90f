"""Rule tables for the values a caller hands the library.

A table maps each key a function takes to ``(what, test)``: what a value
must be, worded for a message, and a test of the value.  A key takes
``"auto"`` where its ``what`` offers it, so that the two cannot disagree.
The function checks its own table with :func:`check_rules`; the CLI reads
the same tables to list every problem in a config before it reads any data.
"""

from __future__ import annotations

import math
import numbers

AUTO = "auto"


def number(x) -> float:
    """``x`` as a float if it is a number in float range other than a bool, else nan."""
    try:
        return float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
    except OverflowError:
        return math.nan


def count(x) -> bool:
    """A whole number >= 1: 3 or 3.0, not 2.5, ``True`` or ``"3"``."""
    return number(x).is_integer() and x >= 1


def positive(x) -> bool:
    """A finite number > 0."""
    return 0 < number(x) < math.inf


def shape(x) -> bool:
    """An integer >= 1 that NumPy takes as a shape: 3, not 3.0 or ``True``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 1


SEED = ("an integer >= 0",
        lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 0)


def rule_problems(rules: dict, values: dict) -> list[str]:
    """``<key> must be <what>, got <value>`` for every value in ``values``
    (key to value) that fails its rule in ``rules``; keys without a rule are
    not checked."""
    problems = []
    for key, value in values.items():
        what, test = rules.get(key, ("", None))
        if test is None or test(value) or (value == AUTO and "'auto'" in what):
            continue
        if test is count and value != AUTO and not number(value).is_integer():
            what = "a whole number"
        # a rejected "auto" is not echoed, so that the line does not offer it
        problems.append(f"{key} must be {what}" + ("" if value == AUTO else f", got {value!r}"))
    return problems


def check_rules(rules: dict, **values) -> None:
    """Raise ``ValueError`` on the first of :func:`rule_problems`."""
    for problem in rule_problems(rules, values):
        raise ValueError(problem)
