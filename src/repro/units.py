"""Engineering-unit helpers: SI suffix parsing/formatting and dB maths.

Analogue design data is exchanged in SPICE-style engineering notation
(``10u``, ``0.35u``, ``5meg``, ``2.2k``) and performance numbers in
decibels.  This module centralises those conversions so netlists, process
cards, table files and reports all agree on one dialect.

The dialect follows SPICE conventions:

* suffixes are case-insensitive;
* ``m`` is milli and ``meg`` (or ``x``) is mega -- the classic trap;
* ``mil`` is a thousandth of an inch (25.4 um), the SPICE legacy
  geometry unit;
* a trailing unit name after the suffix is ignored (``10uF`` == ``10u``),
  matching how SPICE reads ``100pF`` or ``0.35um``.
"""

from __future__ import annotations

import math
import re

__all__ = [
    "parse_si",
    "format_si",
    "db20",
    "from_db20",
    "SI_SUFFIXES",
]

#: Mapping of SPICE engineering suffixes to multipliers.  Order matters for
#: the regular expression below only in that the multi-letter ``meg`` and
#: ``mil`` must be matched before the single-letter ``m``.
SI_SUFFIXES: dict[str, float] = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "x": 1e6,
    "k": 1e3,
    "mil": 25.4e-6,
    "m": 1e-3,
    "u": 1e-6,
    "µ": 1e-6,   # U+00B5 micro sign
    "μ": 1e-6,   # U+03BC Greek mu -- what "µ".upper().lower() becomes,
                 # and what Greek keyboard layouts type

    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}

_NUMBER_RE = re.compile(
    r"""^\s*
    (?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    (?P<suffix>(?:meg|mil|[tgxkmunpfaµμ]))?
    (?P<unit>[a-zµμΩ°%]*)
    \s*$""",
    re.IGNORECASE | re.VERBOSE,
)

# Suffix multipliers for pretty-printing, largest first.
_FORMAT_STEPS: tuple[tuple[float, str], ...] = (
    (1e12, "T"),
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
)


def parse_si(text: str | float | int) -> float:
    """Parse a SPICE-style engineering-notation number into a float.

    Numeric inputs pass through unchanged, so call sites can accept either
    ``10e-6`` or ``"10u"`` for the same parameter.

    >>> parse_si("10u")
    1e-05
    >>> parse_si("0.35um")
    3.5e-07
    >>> parse_si("5meg")
    5000000.0
    >>> parse_si("2.2k")
    2200.0
    >>> parse_si("1mil")
    2.54e-05
    >>> parse_si(42)
    42.0

    Raises
    ------
    ValueError
        If ``text`` is not a valid engineering-notation number.
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_RE.match(text)
    if match is None:
        raise ValueError(f"not an engineering-notation number: {text!r}")
    value = float(match.group("num"))
    suffix = match.group("suffix")
    if suffix:
        value *= SI_SUFFIXES[suffix.lower()]
    return value


def format_si(value: float, unit: str = "", digits: int = 4) -> str:
    """Format ``value`` with an engineering suffix.

    >>> format_si(1e-5, 'F')
    '10uF'
    >>> format_si(3.5e-07, 'm')
    '350nm'
    >>> format_si(0.0, 'V')
    '0V'
    """
    if value == 0.0 or not math.isfinite(value):
        return f"{value:g}{unit}"
    magnitude = abs(value)
    for step, suffix in _FORMAT_STEPS:
        if magnitude >= step:
            scaled = value / step
            text = f"{scaled:.{digits}g}"
            return f"{text}{suffix}{unit}"
    # Smaller than atto: fall back to scientific notation.
    return f"{value:.{digits}g}{unit}"


def db20(ratio: float) -> float:
    """Amplitude ratio -> decibels (``20*log10``).

    >>> round(db20(10.0), 1)
    20.0
    """
    return 20.0 * math.log10(ratio)


def from_db20(db: float) -> float:
    """Decibels -> amplitude ratio; inverse of :func:`db20`.

    This is the paper's ``gain_in_v = pow(10, gain_prop/20)`` conversion
    used inside the Verilog-A behavioural model.
    """
    return 10.0 ** (db / 20.0)
