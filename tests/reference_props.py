"""Reference copies of the scene's property checks and renderers as they
were before their exact-type fast paths and lookup tables: the general
code every value not of an exact expected type still takes.
test_writable_reference.py compares scene.WRITABLE against them.
"""

from __future__ import annotations

import math

from adaptkit.errors import TypeMismatch
from adaptkit.scene import DetailLevel, Modality
from adaptkit.values import normalize_yaw, quote_text

_MODALITY_ORDER = (Modality.VISUAL, Modality.AUDIO, Modality.VOICE_INPUT)


def format_float(x: float) -> str:
    return f"{x:.6f}"


def check_bool(v):
    if not isinstance(v, bool):
        raise TypeMismatch("expected bool")
    return v


def check_text(v):
    if not isinstance(v, str):
        raise TypeMismatch("expected text")
    if any(c in "\r\n" for c in v):
        raise TypeMismatch("text values must not contain newlines")
    return v


def _float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeMismatch("expected a number")
    try:
        return float(v)
    except OverflowError:
        return math.inf


def check_size(v):
    v = _float(v)
    if not (v > 0) or not math.isfinite(v):
        raise TypeMismatch("text_size must be a positive finite number")
    return v


def check_yaw(v):
    v = _float(v)
    if not math.isfinite(v):
        raise TypeMismatch("yaw must be a finite number")
    return normalize_yaw(v)


def check_detail(v):
    if not isinstance(v, DetailLevel):
        raise TypeMismatch("expected a detail level")
    return v


def check_modalities(v):
    if not isinstance(v, frozenset) or not v or not all(isinstance(m, Modality) for m in v):
        raise TypeMismatch("expected a non-empty modality set")
    return v


def check_highlight(v):
    if v is None:
        return v
    if (
        not isinstance(v, tuple)
        or len(v) != 3
        or not all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c <= 255 for c in v)
    ):
        raise TypeMismatch("expected an (r,g,b) color with components in 0..255, or none")
    return v


def render_bool(value) -> str:
    return "true" if value else "false"


def render_detail(value) -> str:
    return value.value


def render_modalities(value) -> str:
    return ",".join(m.value for m in _MODALITY_ORDER if m in value)


def render_highlight(value) -> str:
    return "none" if value is None else f"({value[0]},{value[1]},{value[2]})"


# property -> (check, render), as scene.WRITABLE held them
WRITABLE = {
    "visible": (check_bool, render_bool),
    "text": (check_text, quote_text),
    "text_size": (check_size, format_float),
    "yaw": (check_yaw, format_float),
    "detail": (check_detail, render_detail),
    "modality": (check_modalities, render_modalities),
    "highlight": (check_highlight, render_highlight),
    "billboard": (check_bool, render_bool),
}
