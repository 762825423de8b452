"""Context store: the knowledge base of monitored features.

Features are namespaced into the three context categories (environment,
user, platform) and hold typed values. A feature's value type is fixed by
its first write; re-setting with a different type is an error, and reading
a feature that was never set is an error rather than a default. The store
tracks which features changed since the last drain so a control loop can
pull deltas, and it can persist a chosen key set to a line-oriented text
format and restore it on a later run.

A store instance belongs to one control loop at a time; values themselves
are immutable, so reads handed to other threads stay safe.
"""

from __future__ import annotations

import enum
import math
import string

from .errors import MalformedStateFile, TypeMismatch, UnknownFeature
from .values import Value, parse_value, render_value, type_name, values_equal


class ContextCategory(enum.Enum):
    ENVIRONMENT = "env"
    USER = "user"
    PLATFORM = "platform"


class ChangeFlag(enum.Enum):
    CHANGED = "changed"
    UNCHANGED = "unchanged"


def _is_name(s: str) -> bool:
    """``[a-z][a-z0-9_]*``: an ASCII identifier that starts with a lowercase
    letter and holds no uppercase one."""
    return s.isascii() and s.isidentifier() and s.islower() and s[0] != "_"


_PREFIXES = {c.value: c for c in ContextCategory}


class FeatureId(str):
    """A context feature: a ``str`` equal to its rendered id, e.g. ``env.luminance``.

    A plain string with the same text finds the same store, dirty-set and
    read-set entries, and ids sort by their text.
    """

    __slots__ = ()

    def __new__(cls, category: ContextCategory, name: str) -> "FeatureId":
        if not _is_name(name):
            raise ValueError(f"invalid feature name: {name!r}")
        return str.__new__(cls, f"{category.value}.{name}")

    @property
    def category(self) -> ContextCategory:
        return _PREFIXES[self.partition(".")[0]]

    @property
    def name(self) -> str:
        return self.partition(".")[2]

    def __reduce__(self):
        # the constructor takes a category and a name, not the text
        return FeatureId, (self.category, self.name)

    @staticmethod
    def parse(text: str) -> "FeatureId":
        """Parse ``env.name`` / ``user.name`` / ``platform.name``."""
        prefix, dot, name = text.partition(".")
        if not dot or prefix not in _PREFIXES or not _is_name(name):
            raise ValueError(f"invalid feature id: {text!r}")
        return str.__new__(FeatureId, text)


class ContextStore:
    """Mutable map of features with type stability and change tracking."""

    def __init__(self):
        self._values: dict[FeatureId, Value] = {}
        self._dirty: set[FeatureId] = set()  # features changed since the last drain

    def set_feature(self, feature: FeatureId, value: Value) -> ChangeFlag:
        """Write a feature; the value type is fixed at the first write.

        Returns CHANGED iff the value differs from the prior one (bitwise
        for floats); only changed writes mark the feature dirty.
        """
        name = type_name(value)
        if name == "float" and not math.isfinite(value):
            raise TypeMismatch("float values must be finite")
        if name == "text" and ("\n" in value or "\r" in value):
            raise TypeMismatch("text values must not contain newlines")
        prior = self._values.get(feature)  # no value is None
        if prior is not None:
            prior_name = type_name(prior)
            if prior_name != name:
                raise TypeMismatch(f"{feature} holds {prior_name}, cannot set {name}")
            # values_equal compares floats and vec3s by bits; for the rest it is ==
            if values_equal(prior, value) if name in ("float", "vec3") else prior == value:
                return ChangeFlag.UNCHANGED
        self._values[feature] = value
        self._dirty.add(feature)
        return ChangeFlag.CHANGED

    def get_feature(self, feature: FeatureId) -> Value:
        try:
            return self._values[feature]
        except KeyError:
            raise UnknownFeature(f"feature {feature} was never set") from None

    def has_feature(self, feature: FeatureId) -> bool:
        return feature in self._values

    def keys(self) -> list[FeatureId]:
        return sorted(self._values)

    def drain_dirty(self) -> set[FeatureId]:
        """Return the features changed since the last drain: the log itself,
        swapped for an empty one."""
        dirty = self._dirty
        self._dirty = set()
        return dirty


def save_state(store: ContextStore, keys: list[FeatureId]) -> str:
    """Serialize the given keys as ``id=value`` lines, lexicographic by id.

    Floats use exactly 6 decimals, Vec3 is ``(x,y,z)`` with the same float
    format, and text values are quoted.
    """
    lines = []
    for fid in sorted(keys):
        lines.append(f"{fid}={render_value(store.get_feature(fid))}")
    return "".join(line + "\n" for line in lines)


def load_state(text: str) -> ContextStore:
    """Parse a state file back into a (partial) store. Lines and keys are
    stripped of ASCII whitespace only, the whitespace the tokenizer skips."""
    store = ContextStore()
    seen: set[FeatureId] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip(string.whitespace):
            continue
        key, eq, value_text = line.partition("=")
        if not eq:
            raise MalformedStateFile(f"line {lineno}: missing '=' in {line!r}")
        try:
            fid = FeatureId.parse(key.strip(string.whitespace))
        except ValueError as e:
            raise MalformedStateFile(f"line {lineno}: {e}") from None
        if fid in seen:
            raise MalformedStateFile(f"line {lineno}: duplicate key {fid}")
        seen.add(fid)
        try:
            value = parse_value(value_text)
        except (ValueError, TypeMismatch) as e:
            raise MalformedStateFile(f"line {lineno}: {e}") from None
        store.set_feature(fid, value)
    return store
