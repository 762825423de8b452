"""Typed values shared by the context store, scene model, and DSL.

A context value is one of: bool, int, float, str (no newlines), or
:class:`Vec3`. Floats and Vec3 components must be finite. Two textual
renderings exist:

* the fixed rendering used in traces and state files (floats with exactly
  6 decimals, Vec3 as ``(x,y,z)`` without spaces, strings quoted), and
* the minimal rendering used by the rule pretty-printer (``repr`` floats).

Equality used for change detection is bitwise on floats, so ``0.0`` and
``-0.0`` count as different values and no epsilon is applied anywhere.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from ._lexer import literal, tokenize
from .errors import DslSyntaxError, TypeMismatch

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Vec3:
    """A 3D point/offset in meters; y is the vertical axis."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = self.x, self.y, self.z
        if type(x) is type(y) is type(z) is float and math.isfinite(x + y + z):
            return  # three exact finite floats: stored as given
        for c in (x, y, z):
            if not isinstance(c, (int, float)) or isinstance(c, bool) or not math.isfinite(c):
                raise TypeMismatch(f"Vec3 components must be finite numbers, got {c!r}")
        # normalize ints handed in by literals
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))


Value = bool | int | float | str | Vec3

_TYPE_NAMES = {bool: "bool", int: "int", float: "float", str: "text", Vec3: "vec3"}


def type_name(value: Value) -> str:
    """Name of a value's type; bool is checked before int (bool is an int subclass)."""
    name = _TYPE_NAMES.get(type(value))
    if name is not None:
        return name
    for t in (bool, int, float, str, Vec3):
        if isinstance(value, t):
            return _TYPE_NAMES[t]
    raise TypeMismatch(f"unsupported value type: {type(value).__name__}")


def check_value(value: Value) -> Value:
    """Validate domain invariants: finite floats, no newlines in text."""
    name = type_name(value)
    if name == "float" and not math.isfinite(value):
        raise TypeMismatch("float values must be finite")
    if name == "text" and ("\n" in value or "\r" in value):
        raise TypeMismatch("text values must not contain newlines")
    return value


# a float's IEEE 754 bytes: equal bytes are the equality change detection uses
float_bits = struct.Struct("<d").pack


def values_equal(a: Value, b: Value) -> bool:
    """Change-detection equality: exact for bool/int/text, bitwise for floats."""
    if type_name(a) != type_name(b):
        return False
    if isinstance(a, float):
        return float_bits(a) == float_bits(b)
    if isinstance(a, Vec3):
        return (
            float_bits(a.x) == float_bits(b.x)
            and float_bits(a.y) == float_bits(b.y)
            and float_bits(a.z) == float_bits(b.z)
        )
    return a == b


def normalize_yaw(radians: float) -> float:
    """Wrap an angle into [0, 2*pi). Guards the fmod edge that returns 2*pi."""
    r = radians % TAU
    if r >= TAU:  # tiny negative inputs can wrap to exactly TAU
        r = 0.0
    return r + 0.0  # collapse -0.0


# fixed 6-decimal rendering (round-half-even) used in traces and state files;
# a bound str.format, so a call runs no Python frame
format_float = "{:.6f}".format


def quote_text(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_value(value: Value) -> str:
    """Fixed rendering for traces and state files."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Vec3):
        return f"({format_float(value.x)},{format_float(value.y)},{format_float(value.z)})"
    if isinstance(value, str):
        return quote_text(value)
    raise TypeMismatch(f"unsupported value type: {type(value).__name__}")


def parse_value(text: str) -> Value:
    """Parse the fixed rendering back into a typed value.

    Raises ValueError when the text is not exactly one literal.
    """
    try:
        tokens = tokenize(text, 1)
        value = literal(tokens[0], 1) if len(tokens) == 1 else None
    except DslSyntaxError as e:
        raise ValueError(e.message) from None
    if value is None:
        raise ValueError(f"unparsable value: {text!r}")
    if isinstance(value, tuple):
        return Vec3(*value)
    return check_value(value)
