"""Scenario replay: parsing, batching, determinism, trace comparison."""

from __future__ import annotations

import pytest

from adaptkit import (
    DecreasingTimestamp,
    DslSyntaxError,
    DuplicateFeatureInEvent,
    FeatureTypeChange,
    Vec3,
    compare_traces,
    parse_rules,
    parse_scenario,
    parse_scene,
    run_scenario,
)

from adaptkit import scenario as scenario_module

from conftest import assert_same_lines, fixture_text, load_fixture_bundle, run_fixture, store_from


class TestParseScenario:
    def test_initial_block_and_one_event(self):
        sc = parse_scenario(
            "scenario s\nat 0 set env.luminance = 0.5\nat 1000 set env.luminance = 0.01\n"
        )
        assert len(sc.initial) == 1
        assert len(sc.events) == 1
        assert sc.events[0].t == 1000

    def test_decreasing_timestamp(self):
        with pytest.raises(DecreasingTimestamp) as exc:
            parse_scenario(
                "scenario s\nat 1000 set env.a = 1\nat 500 set env.b = 2\n"
            )
        assert exc.value.line == 3

    def test_duplicate_feature_in_event(self):
        with pytest.raises(DuplicateFeatureInEvent) as exc:
            parse_scenario(
                "scenario s\nat 1000 set env.a = 1\nat 1000 set env.a = 2\n"
            )
        assert exc.value.line == 3

    def test_same_feature_in_different_events_ok(self):
        sc = parse_scenario(
            "scenario s\nat 1000 set env.a = 1\nat 2000 set env.a = 2\n"
        )
        assert len(sc.events) == 2

    @pytest.mark.parametrize("first, later", [("0.5", "true"), ("1", "1.5"), ("(0.0,1.0,2.0)", '"a"'), ("true", "0")])
    def test_type_change_is_refused_at_its_line(self, first, later):
        text = f"scenario s\nat 0 set env.a = {first}\nat 10 set env.b = 1\nat 20 set env.a = {later}\n"
        with pytest.raises(FeatureTypeChange) as exc:
            parse_scenario(text)
        assert exc.value.line == 4
        assert exc.value.message.startswith("env.a holds ") and "(line 2), cannot set " in exc.value.message

    def test_same_type_in_later_events_ok(self):
        sc = parse_scenario("scenario s\nat 0 set env.a = 0.5\nat 10 set env.a = -0.0\nat 20 set env.b = 2\n")
        assert [s for e in sc.events for s in e.sets][0][1] == -0.0

    def test_missing_header(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_scenario("at 0 set env.a = 1\n")
        assert exc.value.line == 1

    def test_bad_set_line(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_scenario("scenario s\nat 0 env.a = 1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", ["1e400", "-1e400", "(0.0,1e400,0.0)"])
    def test_non_finite_value_is_a_syntax_error(self, value):
        with pytest.raises(DslSyntaxError) as exc:
            parse_scenario(f"scenario s\nat 0 set env.y = 1\nat 5 set env.x = {value}\n")
        assert exc.value.line == 3

    def test_vec3_value(self):
        sc = parse_scenario("scenario s\nat 0 set user.position = (0.0,0.0,2.0)\n")
        assert sc.initial[0][1] == Vec3(0.0, 0.0, 2.0)

    def test_equal_timestamps_merge_into_one_event(self):
        sc = parse_scenario(
            "scenario s\nat 1000 set env.a = 1\nat 1000 set env.b = 2\n"
        )
        assert len(sc.events) == 1
        assert len(sc.events[0].sets) == 2


class TestRunScenario:
    def test_initial_only_scenario_is_just_the_init_event(self):
        rules, scene, scenario, _ = load_fixture_bundle(
            "printer/printer.rules", "printer/printer.scene", "printer/first_uses.scenario"
        )
        trace = run_scenario(
            rules, scene, scenario, store=store_from({"user.app_use_count": 9})
        )
        assert all(ev.event == 0 for ev in trace)
        assert trace.events[-1].kind == "quiescent"

    def test_replay_determinism(self):
        first = run_fixture(
            "printer/printer.rules", "printer/printer.scene", "printer/dark_switch.scenario"
        ).render()
        second = run_fixture(
            "printer/printer.rules", "printer/printer.scene", "printer/dark_switch.scenario"
        ).render()
        assert first == second

    def test_timestamp_independence(self):
        rules, scene, scenario, _ = load_fixture_bundle(
            "printer/printer.rules", "printer/printer.scene", "printer/dark_switch.scenario"
        )
        base = run_scenario(rules, scene, scenario).render()

        scaled_text = []
        for line in fixture_text("printer/dark_switch.scenario").splitlines():
            if line.startswith("at "):
                _, ms, rest = line.split(" ", 2)
                line = f"at {int(ms) * 7} {rest}"
            scaled_text.append(line)
        scaled = parse_scenario("\n".join(scaled_text) + "\n")
        rules2, scene2, _, _ = load_fixture_bundle(
            "printer/printer.rules", "printer/printer.scene", "printer/dark_switch.scenario"
        )
        assert_same_lines(run_scenario(rules2, scene2, scaled).render(), base)

    def test_event_batching_is_atomic(self):
        # covered at engine level too; here through the scenario file format
        text = (
            "scenario s\n"
            "at 0 set env.a = false\n"
            "at 0 set env.b = false\n"
            "at 1000 set env.a = true\n"
            "at 1000 set env.b = true\n"
        )
        rules = parse_rules(
            "condition ca: env.a == true\n"
            "condition cb: env.b == true\n"
            "rule Both when ca, cb do set_visible(panel, false) category Style\n"
        )
        scene = parse_scene("element panel at (0.0,1.0,0.0)\n")
        trace = run_scenario(rules, scene, parse_scenario(text))
        execs = [ev for ev in trace if ev.kind == "rule_exec"]
        assert len(execs) == 1 and execs[0].cycle == 1


class TestCompareTraces:
    def test_identical(self):
        assert compare_traces("a\nb\n", "a\nb\n").match

    def test_first_diff_line_reported(self):
        v = compare_traces("a\nb\nc\n", "a\nb\nX\n")
        assert not v.match
        assert (v.line, v.expected, v.actual) == (3, "X", "c")

    def test_equal_texts_are_not_normalized(self, monkeypatch):
        """Equal texts match without the copies normalizing makes."""
        monkeypatch.setattr(scenario_module, "_normalize", lambda text: pytest.fail("normalized"))
        assert compare_traces("a\r\nb\n\n", "a\r\nb\n\n").match

    def test_crlf_golden_matches_lf_actual(self):
        assert compare_traces("a\nb\n", "a\r\nb\r\n").match

    def test_trailing_newline_normalized(self):
        assert compare_traces("a\nb", "a\nb\n\n").match

    def test_missing_tail_line(self):
        v = compare_traces("a\n", "a\nb\n")
        assert not v.match and v.line == 2 and v.actual is None and v.expected == "b"

    def test_crlf_and_lone_cr_on_either_side(self):
        assert compare_traces("a\r\nb\r\n", "a\nb\n").match
        assert compare_traces("a\rb\r", "a\r\nb") == compare_traces("a\nb", "a\nb")
        v = compare_traces("a\r\nb\r\nc\r\n", "a\nb\nX\n")
        assert (v.match, v.line, v.expected, v.actual) == (False, 3, "X", "c")

    def test_trailing_newlines_on_either_side(self):
        assert compare_traces("a\nb\n\n\n", "a\nb").match
        assert compare_traces("a\nb\r\n\r\n", "a\nb\n").match

    def test_two_empty_traces_match(self):
        assert compare_traces("", "").match
        assert compare_traces("\n\n", "\r\n").match

    def test_empty_against_one_line(self):
        v = compare_traces("", "a\n")
        assert (v.match, v.line, v.expected, v.actual) == (False, 1, "a", None)

    def test_mismatch_on_the_last_line(self):
        v = compare_traces("a\nb\nc\n", "a\nb\nd")
        assert (v.match, v.line, v.expected, v.actual) == (False, 3, "d", "c")

    def test_extra_actual_line(self):
        v = compare_traces("a\nb\nc\n", "a\nb\n")
        assert (v.match, v.line, v.expected, v.actual) == (False, 3, None, "c")

    def test_interior_blank_line_counts(self):
        v = compare_traces("a\n\nb\n", "a\nb\n")
        assert (v.match, v.line, v.expected, v.actual) == (False, 2, "b", "")

    def test_verdicts_match_a_line_by_line_comparison(self):
        """Every pair of short texts gets the verdict of normalising, splitting
        into lines and comparing them in order."""
        from itertools import product, zip_longest

        from adaptkit import Verdict

        def line_by_line(actual, golden):
            def split(text):
                text = text.replace("\r\n", "\n").replace("\r", "\n").rstrip("\n")
                return text.split("\n") if text else []

            pairs = zip_longest(split(actual), split(golden))
            for i, (got, want) in enumerate(pairs, start=1):
                if got != want:
                    return Verdict(False, line=i, expected=want, actual=got)
            return Verdict(True)

        pieces = ("", "a", "b", "\n", "\r\n", "\r")
        texts = {"".join(p) for p in product(pieces, repeat=3)}
        for actual, golden in product(sorted(texts), repeat=2):
            assert compare_traces(actual, golden) == line_by_line(actual, golden), (actual, golden)
