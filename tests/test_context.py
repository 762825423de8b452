"""Context store: typed features, change tracking, persistence."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adaptkit import (
    ChangeFlag,
    ContextCategory,
    ContextStore,
    FeatureId,
    MalformedStateFile,
    TypeMismatch,
    UnknownFeature,
    Vec3,
    load_state,
    save_state,
)
from adaptkit.values import type_name

from reference_context import ReferenceStore

ENV = ContextCategory.ENVIRONMENT
USER = ContextCategory.USER

LUM = FeatureId(ENV, "luminance")
COUNT = FeatureId(USER, "app_use_count")
POS = FeatureId(USER, "position")


class TestSetGet:
    def test_second_identical_set_is_unchanged(self):
        store = ContextStore()
        assert store.set_feature(LUM, 0.5) is ChangeFlag.CHANGED
        assert store.set_feature(LUM, 0.5) is ChangeFlag.UNCHANGED

    def test_differing_values_are_changed(self):
        store = ContextStore()
        store.set_feature(COUNT, 5)
        assert store.set_feature(COUNT, 6) is ChangeFlag.CHANGED

    def test_type_is_fixed_at_first_set(self):
        store = ContextStore()
        store.set_feature(LUM, 0.5)
        with pytest.raises(TypeMismatch):
            store.set_feature(LUM, True)

    def test_bool_is_not_an_int(self):
        store = ContextStore()
        store.set_feature(COUNT, 1)
        with pytest.raises(TypeMismatch):
            store.set_feature(COUNT, True)

    def test_write_then_read(self):
        store = ContextStore()
        store.set_feature(POS, Vec3(0, 0, 2))
        assert store.get_feature(POS) == Vec3(0, 0, 2)

    def test_unset_read_is_an_error(self):
        with pytest.raises(UnknownFeature):
            ContextStore().get_feature(FeatureId(ENV, "never_set"))

    def test_last_write_wins(self):
        store = ContextStore()
        store.set_feature(LUM, 0.5)
        store.set_feature(LUM, 0.01)
        assert store.get_feature(LUM) == 0.01

    def test_nonfinite_float_rejected(self):
        store = ContextStore()
        with pytest.raises(TypeMismatch):
            store.set_feature(LUM, math.nan)
        with pytest.raises(TypeMismatch):
            store.set_feature(POS, Vec3(1.0, math.inf, 0.0))

    def test_newline_text_rejected(self):
        with pytest.raises(TypeMismatch):
            ContextStore().set_feature(FeatureId(ENV, "label"), "two\nlines")

    def test_negative_zero_counts_as_change(self):
        # change detection is bitwise, not numeric
        store = ContextStore()
        store.set_feature(LUM, 0.0)
        assert store.set_feature(LUM, -0.0) is ChangeFlag.CHANGED


class TestFeatureId:
    def test_equal_ids_hash_alike_and_share_a_key(self, monkeypatch):
        a, b = FeatureId.parse("env.luminance"), FeatureId(ENV, "luminance")
        assert a is not b and a == b and str(a) == str(b) == "env.luminance"

        def no_enum_hash(self):
            raise AssertionError("a feature id hashed its category member")

        monkeypatch.setattr(ContextCategory, "__hash__", no_enum_hash)
        assert hash(a) == hash(b)
        table = {a: 1}
        table[b] += 1
        assert table == {LUM: 2} and b in {a} and FeatureId.parse("user.luminance") not in table

    def test_a_feature_id_is_its_text(self):
        a = FeatureId.parse("env.x")
        assert a == "env.x" and hash(a) == hash("env.x")
        store = ContextStore()
        store.set_feature(a, 1)
        assert store.get_feature("env.x") == 1 and store.has_feature("env.x")
        assert a.category is ENV and a.name == "x"
        assert (LUM.category, LUM.name) == (ENV, "luminance")
        with pytest.raises(ValueError, match="invalid feature name: 'X'"):
            FeatureId(ENV, "X")
        with pytest.raises(ValueError, match="invalid feature id: 'env.X'"):
            FeatureId.parse("env.X")
        assert not hasattr(a, "__dict__") and not hasattr(LUM, "__dict__")  # slotted

    def test_copies_hash_alike(self):
        copied = pickle.loads(pickle.dumps(LUM))
        assert copied == LUM and hash(copied) == hash(LUM)


class TestDrainDirty:
    def test_empty_without_sets(self):
        assert ContextStore().drain_dirty() == set()

    def test_returns_the_changed_features_and_no_later_write(self):
        a, b, c = (FeatureId(ENV, name) for name in "abc")
        store = ContextStore()
        store.set_feature(b, 1)
        store.set_feature(a, 1)
        store.set_feature(a, 1)  # unchanged
        drained = store.drain_dirty()
        assert drained == {a, b}
        store.set_feature(c, 1)
        assert drained == {a, b}
        assert store.drain_dirty() == {c}

    def test_drain_clears(self):
        store = ContextStore()
        store.set_feature(LUM, 0.5)
        assert store.drain_dirty() == {LUM}
        assert store.drain_dirty() == set()

    def test_unchanged_set_does_not_mark_dirty(self):
        store = ContextStore()
        store.set_feature(LUM, 0.5)
        store.drain_dirty()
        store.set_feature(LUM, 0.5)
        assert store.drain_dirty() == set()


class TestPersistence:
    def test_round_trip_int(self):
        store = ContextStore()
        store.set_feature(COUNT, 3)
        text = save_state(store, [COUNT])
        assert text == "user.app_use_count=3\n"
        assert load_state(text).get_feature(COUNT) == 3

    def test_float_six_decimals(self):
        store = ContextStore()
        store.set_feature(LUM, 1.2)
        assert save_state(store, [LUM]) == "env.luminance=1.200000\n"

    def test_missing_equals_is_malformed(self):
        with pytest.raises(MalformedStateFile):
            load_state("user.x\n")

    def test_duplicate_key_is_malformed(self):
        with pytest.raises(MalformedStateFile):
            load_state("env.a=1\nenv.a=2\n")

    def test_unparsable_value_is_malformed(self):
        with pytest.raises(MalformedStateFile):
            load_state("env.a=whatever\n")

    def test_vec3_and_text_round_trip(self):
        store = ContextStore()
        store.set_feature(POS, Vec3(1.5, 0.0, -2.25))
        store.set_feature(FeatureId(USER, "name"), 'say "hi" \\ ok')
        text = save_state(store, [POS, FeatureId(USER, "name")])
        loaded = load_state(text)
        assert loaded.get_feature(POS) == Vec3(1.5, 0.0, -2.25)
        assert loaded.get_feature(FeatureId(USER, "name")) == 'say "hi" \\ ok'

    def test_save_is_sorted_regardless_of_key_order(self):
        store = ContextStore()
        for name in ("zeta", "alpha", "mid"):
            store.set_feature(FeatureId(ENV, name), 1)
        text = save_state(store, [FeatureId(ENV, n) for n in ("zeta", "mid", "alpha")])
        assert text.splitlines() == ["env.alpha=1", "env.mid=1", "env.zeta=1"]

    def test_a_feature_id_value_is_stored_as_text(self):
        store = ContextStore()
        store.set_feature(LUM, FeatureId.parse("env.b"))
        assert type_name(store.get_feature(LUM)) == "text"
        text = save_state(store, [LUM])
        assert text == 'env.luminance="env.b"\n'
        loaded = load_state(text).get_feature(LUM)
        assert type(loaded) is str and loaded == "env.b"

    def test_saving_unset_key_is_an_error(self):
        with pytest.raises(UnknownFeature):
            save_state(ContextStore(), [LUM])


# hypothesis strategies: values restricted to what the 6-decimal file
# format can represent exactly
_names = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
_categories = st.sampled_from(list(ContextCategory))
_feature_ids = st.builds(FeatureId, _categories, _names)
_six_dec_floats = st.integers(min_value=-(10**9), max_value=10**9).map(lambda n: n / 1e6)
_texts = st.text(st.characters(blacklist_characters="\n\r"), max_size=20)
_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    _six_dec_floats,
    _texts,
    st.builds(Vec3, _six_dec_floats, _six_dec_floats, _six_dec_floats),
)


@given(st.dictionaries(_feature_ids, _values, max_size=8))
def test_persistence_round_trip_property(entries):
    store = ContextStore()
    for fid, value in entries.items():
        store.set_feature(fid, value)
    loaded = load_state(save_state(store, list(entries)))
    assert sorted(map(str, loaded.keys())) == sorted(str(k) for k in entries)
    for fid, value in entries.items():
        assert loaded.get_feature(fid) == value
        assert type(loaded.get_feature(fid)) is type(value)


@given(st.lists(st.tuples(_feature_ids, st.integers(min_value=0, max_value=3)), max_size=20))
def test_change_soundness_property(writes):
    # drain returns exactly the ids for which some set returned CHANGED
    store = ContextStore()
    changed = set()
    for fid, value in writes:
        if store.set_feature(fid, value) is ChangeFlag.CHANGED:
            changed.add(fid)
    assert store.drain_dirty() == changed


class _Count(int):
    """An int subclass: type_name names it through isinstance."""


_any_values = st.one_of(
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2).map(_Count),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.sampled_from(["", "a", "a\nb", "\r", "x\r\n"]),
    st.text(max_size=3),
    st.sampled_from(["env.a", "user.a"]).map(FeatureId.parse),  # a str subclass
    st.builds(Vec3, *[st.sampled_from([0.0, -0.0, 1.0])] * 3),
    st.sampled_from([None, b"a", [1]]),  # no value type at all
)


def _set_outcome(store: ContextStore, value):
    try:
        return store.set_feature(LUM, value)
    except Exception as e:
        return type(e), str(e)


@given(st.lists(_any_values, min_size=1, max_size=4))
@example([1, True])  # a bool is not an int, though it is one to isinstance
@example([0.0, -0.0])  # == holds, the bits differ
@example(["a\nb"])
@example([math.nan])
@example([1, _Count(1)])
@example([FeatureId.parse("env.a"), "env.a"])
def test_set_feature_matches_the_reference(values):
    """Each value is written in turn to one feature through a store and
    through reference_context's copy of the old set_feature, the first a
    first write and each later one over what the earlier ones left. Both
    give the same flag or the same error class and message, then hold the
    same object and drain the same dirty set."""
    store, reference = ContextStore(), ReferenceStore()
    for value in values:
        assert _set_outcome(store, value) == _set_outcome(reference, value)
        assert store._values.get(LUM) is reference._values.get(LUM)
        assert store.drain_dirty() == reference.drain_dirty()
