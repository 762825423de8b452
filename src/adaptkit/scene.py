"""Scene model: the managed element the adaptation effectors write to.

A scene is a flat set of assistance elements (panels, markers, shelves)
with a pose and a handful of adaptable properties. Geometry is limited to
what the adaptations need: Euclidean distance and yaw-only billboarding
(rotate about the vertical y axis to face the user's horizontal position;
forward is +z at yaw 0 and yaw grows toward +x).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ._lexer import ident, lines, literal
from .errors import DslSyntaxError, DuplicateId, TypeMismatch, UnknownElement, UnknownProperty
from .values import TAU, Vec3, float_bits, format_float, normalize_yaw, quote_text

HORIZONTAL_EPS = 1e-9  # below this horizontal distance, facing is undefined


class DetailLevel(enum.Enum):
    FULL = "full"
    REDUCED = "reduced"


class Modality(enum.Enum):
    VISUAL = "visual"
    AUDIO = "audio"
    VOICE_INPUT = "voice_input"


# each member by its name in the formats, one lookup instead of an Enum call
DETAIL_LEVELS = {d.value: d for d in DetailLevel}
MODALITIES = {m.value: m for m in Modality}

# canonical rendering order for modality sets
_MODALITY_ORDER = (Modality.VISUAL, Modality.AUDIO, Modality.VOICE_INPUT)

# every valid (non-empty) modality set -> its trace rendering
_MODALITY_TEXT = {
    frozenset(combo): ",".join(m.value for m in combo)
    for n in range(1, len(_MODALITY_ORDER) + 1)
    for combo in itertools.combinations(_MODALITY_ORDER, n)
}

Color = tuple[int, int, int]


def distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance; inf where a square is beyond the float range."""
    try:
        return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def face_user_yaw(element_pos: Vec3, user_pos: Vec3) -> float | None:
    """Yaw that points an element's forward (+z) axis at the user.

    Works on the horizontal projection only; returns None when the user is
    within HORIZONTAL_EPS of being directly above/below the element.
    """
    dx = user_pos.x - element_pos.x
    dz = user_pos.z - element_pos.z
    if math.sqrt(dx * dx + dz * dz) < HORIZONTAL_EPS:
        return None
    return normalize_yaw(math.atan2(dx, dz))


@dataclass
class SceneElement:
    id: str
    position: Vec3
    yaw: float = 0.0
    visible: bool = True
    text: str = ""
    text_size: float = 14.0
    detail: DetailLevel = DetailLevel.FULL
    modalities: frozenset[Modality] = frozenset({Modality.VISUAL})
    highlight: Color | None = None
    billboard: bool = False


class PropertyWrite(NamedTuple):
    """An applied (non-no-op) write to an element property. The write path
    builds it with ``tuple.__new__``, which skips the generated ``__new__``."""

    element_id: str
    prop: str
    old: object
    new: object
    writer: str


_tuple_new = tuple.__new__


# writable property -> validator/normalizer for incoming values. Each check
# first accepts the exact types the engine writes (the stored values and the
# checked constants of rule plans) in one test; anything else takes the
# general path, with the same result or error.
def _check_bool(v):
    if not isinstance(v, bool):
        raise TypeMismatch("expected bool")
    return v


def _check_text(v):
    if not isinstance(v, str):
        raise TypeMismatch("expected text")
    if "\n" in v or "\r" in v:  # a trace line holds the text
        raise TypeMismatch("text values must not contain newlines")
    return v


def _float(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeMismatch("expected a number")
    try:
        return float(v)
    except OverflowError:  # an int beyond the float range
        return math.inf


def _check_size(v):
    if type(v) is float and 0.0 < v < math.inf:
        return v
    v = _float(v)
    if not (v > 0) or not math.isfinite(v):
        raise TypeMismatch("text_size must be a positive finite number")
    return v


def _check_yaw(v):
    if type(v) is float and 0.0 <= v < TAU:  # normalize_yaw keeps it, -0.0 becoming 0.0
        return v if v else 0.0
    v = _float(v)
    if not math.isfinite(v):  # normalize_yaw would make it NaN
        raise TypeMismatch("yaw must be a finite number")
    return normalize_yaw(v)


def _check_detail(v):
    if not isinstance(v, DetailLevel):
        raise TypeMismatch("expected a detail level")
    return v


def _check_modalities(v):
    if type(v) is frozenset and v in _MODALITY_TEXT:
        return v
    if not isinstance(v, frozenset) or not v or not all(isinstance(m, Modality) for m in v):
        raise TypeMismatch("expected a non-empty modality set")
    return v


def _check_highlight(v):
    if v is None:
        return v
    if type(v) is tuple and len(v) == 3:
        r, g, b = v
        if (type(r) is int and type(g) is int and type(b) is int
                and 0 <= r <= 255 and 0 <= g <= 255 and 0 <= b <= 255):
            return v
    if (
        not isinstance(v, tuple)
        or len(v) != 3
        or not all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c <= 255 for c in v)
    ):
        raise TypeMismatch("expected an (r,g,b) color with components in 0..255, or none")
    return v


def _render_bool(value) -> str:
    return "true" if value else "false"


def _render_detail(value) -> str:
    return value._value_  # what the ``value`` property returns, without its descriptor


def _render_modalities(value) -> str:
    try:
        return _MODALITY_TEXT[value]
    except (KeyError, TypeError):
        return ",".join(m.value for m in _MODALITY_ORDER if m in value)


def _render_highlight(value) -> str:
    return "none" if value is None else f"({value[0]},{value[1]},{value[2]})"


class Property(NamedTuple):
    """A writable element property."""

    check: Callable  # validates and normalises an incoming value
    attr: str  # the SceneElement attribute holding it
    render: Callable[[object], str]  # trace rendering


# writable property name -> how it is checked, stored and rendered
WRITABLE = {
    "visible": Property(_check_bool, "visible", _render_bool),
    "text": Property(_check_text, "text", quote_text),
    "text_size": Property(_check_size, "text_size", format_float),
    "yaw": Property(_check_yaw, "yaw", format_float),
    "detail": Property(_check_detail, "detail", _render_detail),
    "modality": Property(_check_modalities, "modalities", _render_modalities),
    "highlight": Property(_check_highlight, "highlight", _render_highlight),
    "billboard": Property(_check_bool, "billboard", _render_bool),
}

# properties a write to which can leave a billboard aimed elsewhere
_AIM_PROPS = frozenset({"yaw", "billboard"})

# properties readable from DSL expressions, with their expression type
READABLE_PROPS = {
    "position": "vec3",
    "yaw": "float",
    "visible": "bool",
    "text": "text",
    "text_size": "float",
    "billboard": "bool",
}


def prop_values_equal(a, b) -> bool:
    """No-op test of a property write: bitwise for floats, ``==`` otherwise."""
    if isinstance(a, float) and isinstance(b, float):
        return float_bits(a) == float_bits(b)
    return a == b


class SceneModel:
    """Elements keyed by id; iteration is always lexicographic by id.

    Every applied write_property is logged as an (element, property) pair
    until the next drain_dirty; assigning to a SceneElement's attributes
    directly bypasses the log.
    """

    def __init__(self, elements: list[SceneElement] | None = None):
        self._elements: dict[str, SceneElement] = {}
        self._dirty: set[tuple[str, str]] = set()
        self._sorted: list[SceneElement] | None = None  # elements() until add_element
        # the billboard elements in id order, until add_element or a billboard write
        self._billboards: list[SceneElement] | None = None
        self._aimed_at: Vec3 | None = None  # the user position of the last complete re-aim
        for e in elements or []:
            self.add_element(e)

    def add_element(self, element: SceneElement) -> None:
        if element.id in self._elements:
            raise DuplicateId(0, f"duplicate element id {element.id!r}")
        self._elements[element.id] = element
        self._sorted = None
        self._billboards = None
        self._aimed_at = None

    def element(self, element_id: str) -> SceneElement:
        try:
            return self._elements[element_id]
        except KeyError:
            raise UnknownElement(f"no element {element_id!r} in scene") from None

    def has_element(self, element_id: str) -> bool:
        return element_id in self._elements

    def elements(self) -> list[SceneElement]:
        if self._sorted is None:
            self._sorted = [self._elements[k] for k in sorted(self._elements)]
        return list(self._sorted)

    def get_property(self, element_id: str, prop: str):
        el = self.element(element_id)
        if prop == "position":
            return el.position
        spec = WRITABLE.get(prop)
        if spec is None:
            raise UnknownProperty(f"{element_id} has no property {prop!r}")
        return getattr(el, spec.attr)

    def write_property(self, element_id: str, prop: str, value, writer: str) -> PropertyWrite | None:
        """Apply a write; returns None (and changes nothing) for no-op writes,
        as prop_values_equal tells them."""
        try:
            el = self._elements[element_id]
            check, attr, _ = WRITABLE[prop]
        except KeyError:
            if element_id not in self._elements:
                raise UnknownElement(f"no element {element_id!r} in scene") from None
            raise UnknownProperty(f"{element_id} has no writable property {prop!r}") from None
        value = check(value)
        old = getattr(el, attr)
        # prop_values_equal's verdict: equal floats differ in bits only as 0.0
        # and -0.0; no check returns a NaN, so two NaNs never meet here
        if old == value and (value or type(value) is not float or float_bits(old) == float_bits(value)):
            return None
        setattr(el, attr, value)
        self._dirty.add((element_id, prop))
        if prop in _AIM_PROPS:
            self._aimed_at = None
            if prop == "billboard":
                self._billboards = None
        return _tuple_new(PropertyWrite, (element_id, prop, old, value, writer))

    def drain_dirty(self) -> set[tuple[str, str]]:
        """Return the (element, property) pairs written since the last drain:
        the log itself, swapped for an empty one."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def refresh_billboards(self, user_pos: Vec3) -> list[PropertyWrite]:
        """Re-aim every billboard element at the user; skips singular cases.

        Called again with the very ``user_pos`` object of the last complete
        re-aim, it returns [] at once, unless a yaw or billboard property
        was written since (by anyone but that re-aim) or an element added:
        the re-aim would write nothing. Positions are compared by identity,
        which is cheaper than ``==`` and tells -0.0 from 0.0; the store
        keeps a position's object until a write changes it.

        The billboards are kept as a list in id order, made again after an
        add_element or an applied write to a billboard property; like every
        other attribute, a ``billboard`` assigned directly on a SceneElement
        is not seen. Each yaw is face_user_yaw's, computed inline.
        """
        elements = self.elements()
        if user_pos is self._aimed_at:
            return []
        billboards = self._billboards
        if billboards is None:
            billboards = self._billboards = [el for el in elements if el.billboard]
        writes = []
        write_property = self.write_property
        ux, uz = user_pos.x, user_pos.z
        sqrt, atan2 = math.sqrt, math.atan2
        for el in billboards:
            pos = el.position
            dx = ux - pos.x
            dz = uz - pos.z
            if sqrt(dx * dx + dz * dz) < HORIZONTAL_EPS:
                continue
            yaw = atan2(dx, dz) % TAU  # normalize_yaw; % never returns -0.0
            if yaw >= TAU:
                yaw = 0.0
            w = write_property(el.id, "yaw", yaw, "billboard")
            if w is not None:
                writes.append(w)
        self._aimed_at = user_pos
        return writes


# scene attributes given as one literal, which their WRITABLE check decides
_LITERAL_ATTRS = ("visible", "billboard", "text", "yaw", "text_size")


def parse_scene(text: str) -> SceneModel:
    """Parse the line-oriented scene format.

    One element per line::

        element <id> at (x,y,z) [yaw <rad>] [visible <bool>] [text "<...>"]
            [text_size <pt>] [detail full|reduced]
            [modality visual|audio|voice_input[, ...]] [billboard <bool>]

    Attributes may appear in any order after ``at``; '#' starts a comment.
    """
    scene = SceneModel()
    for lineno, tokens in lines(text):
        n = len(tokens)
        if tokens[0] != "element":
            raise DslSyntaxError(lineno, f"expected 'element', got {tokens[0]!r}")
        elem_id = ident(tokens, 1, lineno, "an element id")
        if n < 3 or tokens[2] != "at":
            raise DslSyntaxError(lineno, "expected: element <id> at (x,y,z) ...")
        position = literal(tokens[3], lineno) if n > 3 else None
        if not isinstance(position, tuple):
            raise DslSyntaxError(lineno, "expected position (x,y,z)")
        kwargs = {"position": Vec3(*position)}
        seen = set()
        i = 4
        while i < n:
            attr = tokens[i]
            if attr in seen:
                raise DslSyntaxError(lineno, f"duplicate attribute {attr!r}")
            seen.add(attr)
            if i + 1 == n:
                raise DslSyntaxError(lineno, f"attribute {attr!r} needs a value")
            value = tokens[i + 1]
            i += 2
            if attr == "detail":
                if value not in DETAIL_LEVELS:
                    raise DslSyntaxError(lineno, f"unknown detail level {value!r}")
                kwargs["detail"] = DETAIL_LEVELS[value]
            elif attr == "modality":
                names = [value]
                while i < n and tokens[i] == ",":
                    if i + 1 == n:
                        raise DslSyntaxError(lineno, "unexpected end of line")
                    names.append(tokens[i + 1])
                    i += 2
                modalities = [MODALITIES.get(name) for name in names]
                if None in modalities:
                    raise DslSyntaxError(lineno, f"unknown modality in {','.join(names)!r}")
                kwargs["modalities"] = frozenset(modalities)
            elif attr in _LITERAL_ATTRS:
                try:
                    kwargs[attr] = WRITABLE[attr].check(literal(value, lineno))
                except TypeMismatch as e:
                    raise DslSyntaxError(lineno, f"attribute {attr!r}: {e}") from None
            else:
                raise DslSyntaxError(lineno, f"unknown attribute {attr!r}")
        if scene.has_element(elem_id):
            raise DuplicateId(lineno, f"duplicate element id {elem_id!r}")
        scene.add_element(SceneElement(id=elem_id, **kwargs))
    return scene
