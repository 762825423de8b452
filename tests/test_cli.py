"""CLI: exit codes, diagnostics format, stdout purity, state persistence."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adaptkit.cli import main

from conftest import FIXTURES

PRINTER = FIXTURES / "printer"
CASCADE = FIXTURES / "cascade"
WAREHOUSE = FIXTURES / "warehouse"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_run_validates_once(monkeypatch, capsys):
    import adaptkit.cli

    calls = []
    validate = adaptkit.cli.validate

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(adaptkit.cli, "validate", counting)
    code = run_cli(
        "run", "--rules", PRINTER / "printer.rules", "--scene", PRINTER / "printer.scene",
        "--scenario", PRINTER / "dark_switch.scenario",
    )
    assert code == 0 and len(calls) == 1


class TestCheck:
    def test_clean_printer_fixture(self, capsys):
        code = run_cli(
            "check", "--rules", PRINTER / "printer.rules", "--scene", PRINTER / "printer.scene"
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_dangling_condition_ref(self, tmp_path, capsys):
        bad = tmp_path / "bad.rules"
        bad.write_text("rule R when missing do set_visible(a, true) category Style\n")
        code = run_cli("check", "--rules", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{bad}:1: error:")

    def test_conflict_warning_keeps_exit_zero(self, tmp_path, capsys):
        rules = tmp_path / "c.rules"
        rules.write_text(
            "condition c: env.x == true\n"
            "rule A when c do set_text_size(panel, 24) category Style\n"
            "rule B when c do set_text_size(panel, 30) category Style\n"
        )
        scene = tmp_path / "c.scene"
        scene.write_text("element panel at (0.0,1.0,0.0)\n")
        code = run_cli("check", "--rules", rules, "--scene", scene)
        assert code == 0
        err = capsys.readouterr().err
        assert "warning" in err and "panel.text_size" in err

    @pytest.mark.parametrize("command", ["check", "run", "verify"])
    def test_feature_written_with_two_types_exits_two(self, tmp_path, capsys, command):
        rules = tmp_path / "c.rules"
        rules.write_text(
            "condition c: env.x == true\n"
            "rule R when c do set_feature(env.y, 1) category Style\n"
            "rule Q when c do set_feature(env.y, true) category Style\n"
        )
        scene = tmp_path / "c.scene"
        scene.write_text("element panel at (0.0,1.0,0.0)\n")
        scenario = tmp_path / "c.scenario"
        scenario.write_text("scenario s\nat 0 set env.x = true\n")
        extra = {
            "check": [],
            "run": ["--scenario", scenario],
            "verify": ["--scenario", scenario, "--golden", scenario],
        }[command]
        code = run_cli(command, "--rules", rules, "--scene", scene, *extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{rules}:3: error: set_feature writes env.y as int in rule 'R' and as bool in rule 'Q'\n"
        )

    def test_workflow_cross_checked(self, tmp_path, capsys):
        wf = tmp_path / "w.workflow"
        wf.write_text('workflow w\nstep a "x" until ghost_cond terminal\n')
        code = run_cli(
            "check",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--workflow", wf,
        )
        assert code == 2
        assert "ghost_cond" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli("check", "--rules", "/no/such/file.rules") == 2

    @pytest.mark.parametrize("expr", ["!" * 3000 + "env.a", "(" * 3000 + "env.a" + ")" * 3000])
    def test_deep_nesting_exits_two(self, tmp_path, capsys, expr):
        rules = tmp_path / "deep.rules"
        rules.write_text(f"condition c: {expr}\n")
        assert run_cli("check", "--rules", rules) == 2
        assert capsys.readouterr().err == f"{rules}:1: error: expression nested deeper than 100 levels\n"


class TestRun:
    def test_trace_on_stdout_and_nothing_else(self, capsys):
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out
        for line in out.splitlines():
            assert re.match(r"^E\d+ C\d+ S\d+ ", line), line

    def test_trace_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "out.trace"
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
            "--trace", out_file,
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        golden = (PRINTER / "golden" / "dark_switch.trace").read_text()
        assert out_file.read_text() == golden

    def test_oscillator_exits_three(self, capsys):
        code = run_cli(
            "run",
            "--rules", CASCADE / "oscillator.rules",
            "--scene", CASCADE / "oscillator.scene",
            "--scenario", CASCADE / "oscillator.scenario",
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out.strip().endswith("NONQUIESCENT depth=16")
        assert "runtime error" in captured.err

    def test_max_cascade_flag(self, capsys):
        code = run_cli(
            "run",
            "--rules", CASCADE / "oscillator.rules",
            "--scene", CASCADE / "oscillator.scene",
            "--scenario", CASCADE / "oscillator.scenario",
            "--max-cascade", 5,
        )
        assert code == 3
        assert capsys.readouterr().out.strip().endswith("NONQUIESCENT depth=5")

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_max_cascade_below_one_is_a_usage_error(self, depth, capsys):
        code = run_cli(
            "run",
            "--rules", CASCADE / "oscillator.rules",
            "--scene", CASCADE / "oscillator.scene",
            "--scenario", CASCADE / "oscillator.scenario",
            "--max-cascade", depth,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-cascade" in captured.err

    @pytest.mark.parametrize("depth", ["\u0663", "1_0", " 7", "+4", "0", "x"])
    def test_max_cascade_takes_ascii_digits_only(self, depth, capsys):
        """The chain settles in three cycles: 3 runs, and no other spelling of
        a number (Arabic-Indic three, an underscore, padding, a sign) does."""
        argv = [
            "run",
            "--rules", CASCADE / "chain.rules",
            "--scene", CASCADE / "chain.scene",
            "--scenario", CASCADE / "chain.scenario",
        ]
        assert run_cli(*argv, "--max-cascade", "3") == 0
        capsys.readouterr()
        assert run_cli(*argv, "--max-cascade", depth) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"argument --max-cascade: expected an integer >= 1, got {depth!r}\n")

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("scenario s\nat 10 set env.a = 1\nat 5 set env.a = 2\n")
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", bad,
        )
        assert code == 2
        assert f"{bad}:3: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_feature_type_change_exits_two_before_e0(self, tmp_path, capsys, command):
        lines = (PRINTER / "dark_switch.scenario").read_text().splitlines()
        assert lines[-1].startswith("at 2000 set env.luminance = ")
        lines[-1] = "at 2000 set env.luminance = true"
        changed = tmp_path / "changed.scenario"
        changed.write_text("\n".join(lines) + "\n")
        argv = [command, "--rules", PRINTER / "printer.rules", "--scene", PRINTER / "printer.scene",
                "--scenario", changed]
        if command == "verify":
            argv += ["--golden", PRINTER / "golden" / "dark_switch.trace"]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{changed}:{len(lines)}: error: env.luminance holds float")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_scenario_value_of_another_type_than_set_feature_exits_two(self, tmp_path, capsys, command):
        rules = tmp_path / "r.rules"
        rules.write_text("condition c: env.x == true\nrule R when c do set_feature(env.y, 1) category Style\n")
        scene = tmp_path / "s.scene"
        scene.write_text("element a at (0.0,0.0,0.0)\n")
        scenario = tmp_path / "s.scenario"
        scenario.write_text("scenario s\nat 0 set env.x = true\nat 0 set env.y = true\n")
        golden = tmp_path / "g.trace"
        golden.write_text("")
        assert run_cli("check", "--rules", rules, "--scene", scene) == 0
        argv = [command, "--rules", rules, "--scene", scene, "--scenario", scenario]
        if command == "verify":
            argv += ["--golden", golden]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{rules}:2: error: rule 'R' writes env.y as int, but the scenario sets bool\n"

    def test_trace_into_a_missing_directory_exits_two(self, tmp_path, capsys):
        out_file = tmp_path / "no" / "such" / "x.trace"
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
            "--trace", out_file,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{out_file}: error: No such file or directory\n"

    @pytest.mark.parametrize("which", ["rules", "scene", "scenario", "golden", "state"])
    def test_non_utf8_input_exits_two(self, tmp_path, capsys, which):
        paths = {
            "rules": PRINTER / "printer.rules",
            "scene": PRINTER / "printer.scene",
            "scenario": PRINTER / "dark_switch.scenario",
            "golden": PRINTER / "golden" / "dark_switch.trace",
            "state": tmp_path / "app.state",
        }
        bad = paths[which] = tmp_path / f"bad.{which}"
        bad.write_bytes(b"\xff\n")
        argv = ["--rules", paths["rules"], "--scene", paths["scene"]]
        if which in ("rules", "scene"):
            assert run_cli("check", *argv) == 2
            assert capsys.readouterr().err.startswith(f"{bad}: error: 'utf-8' codec can't decode byte 0xff")
        argv += ["--scenario", paths["scenario"], "--state-file", paths["state"]]
        assert run_cli("verify", *argv, "--golden", paths["golden"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{bad}: error: 'utf-8' codec can't decode byte 0xff")
        assert bad.read_bytes() == b"\xff\n"

    @pytest.mark.parametrize(
        "which, text, error",
        [
            ("rules", "condition c: env.x < \u0663\n", ":1: error: unexpected character '\u0663'"),
            ("scenario", "scenario s\nat 0 set env.x = 1\nat \u0665 set env.x = 7\n",
             ":3: error: unexpected character '\u0665'"),
            ("state", "env.x=\u0661\u0662\n", ": error: line 1: unexpected character '\u0661'"),
        ],
    )
    def test_non_ascii_digit_exits_two(self, tmp_path, capsys, which, text, error):
        """Numbers are ASCII digits: the inputs run with these as 3, 5 and 12
        and fail with Arabic-Indic digits in their place."""
        texts = {
            "rules": "condition c: env.x < 3\n",
            "scenario": "scenario s\nat 0 set env.x = 1\nat 5 set env.x = 7\n",
            "state": "env.x=12\n",
        }
        paths = {name: tmp_path / f"f.{name}" for name in texts}
        for name, path in paths.items():
            path.write_text(texts[name], encoding="utf-8")
        scene = tmp_path / "f.scene"
        scene.write_text("element a at (0.0,0.0,0.0)\n")
        argv = ["run", "--rules", paths["rules"], "--scene", scene, "--scenario", paths["scenario"],
                "--state-file", paths["state"]]
        assert run_cli(*argv) == 0
        capsys.readouterr()
        paths[which].write_text(text, encoding="utf-8")
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{paths[which]}{error}\n"

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000"], ids=["no-break", "em", "ideographic"])
    @pytest.mark.parametrize(
        "which, marked, error",
        [
            ("rules", "condition c: env.x <|3\n", ":1: error: unexpected character {!r}"),
            ("scene", 'element a at (0.0,0.0,0.0)\nelement instruction_panel|at (0.0,1.5,0.0) text ""\n',
             ":2: error: unexpected character {!r}"),
            ("workflow", 'workflow w\nstep s0 "go" target a until|c goto s1\nstep s1 "done" terminal\n',
             ":2: error: unexpected character {!r}"),
            ("scenario", "scenario s\nat 0 set env.x = 1\nat 5 set env.x =|7\n",
             ":3: error: unexpected character {!r}"),
            ("state", "env.x =|12\n", ": error: line 1: unexpected character {!r}"),
            ("state", "|env.x=12\n", ": error: line 1: invalid feature id: {!r}"),
        ],
        ids=["rules", "scene", "workflow", "scenario", "state-value", "state-key"],
    )
    def test_non_ascii_space_between_tokens_exits_two(self, tmp_path, capsys, which, marked, error, space):
        """Whitespace between tokens is ASCII: the inputs run with a space at
        the mark and fail with a Unicode space there, the state file untouched."""
        texts = {
            "rules": "condition c: env.x < 3\n",
            "scene": 'element a at (0.0,0.0,0.0)\nelement instruction_panel at (0.0,1.5,0.0) text ""\n',
            "workflow": 'workflow w\nstep s0 "go" target a until c goto s1\nstep s1 "done" terminal\n',
            "scenario": "scenario s\nat 0 set env.x = 1\nat 5 set env.x = 7\n",
            "state": "env.x=12\n",
        }
        texts[which] = marked.replace("|", " ")
        paths = {name: tmp_path / f"f.{name}" for name in texts}
        for name, path in paths.items():
            path.write_text(texts[name], encoding="utf-8")
        argv = ["run", "--rules", paths["rules"], "--scene", paths["scene"], "--workflow", paths["workflow"],
                "--scenario", paths["scenario"], "--state-file", paths["state"]]
        assert run_cli(*argv) == 0
        capsys.readouterr()
        paths[which].write_text(marked.replace("|", space), encoding="utf-8")
        state = paths["state"].read_bytes()
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = space + "env.x" if marked.startswith("|") else space
        assert captured.err == f"{paths[which]}{error.format(bad)}\n"
        assert paths["state"].read_bytes() == state

    def test_unset_feature_exits_three(self, capsys):
        # first_uses references user.app_use_count but no state file provides it
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
        )
        assert code == 3


@pytest.mark.parametrize("module", ["adaptkit", "adaptkit.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    bad = tmp_path / "bad.rules"
    bad.write_text("garbage(\n")

    def check(rules):
        argv = [sys.executable, "-m", module, "check", "--rules", str(rules)]
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    broken = check(bad)
    assert broken.returncode == 2
    assert broken.stderr.startswith(f"{bad}:1: error: ")
    clean = check(PRINTER / "printer.rules")
    assert (clean.returncode, clean.stdout, clean.stderr) == (0, "", "")


class TestStateFile:
    def test_counter_strictly_increments(self, tmp_path, capsys):
        state = tmp_path / "app.state"
        for expected in (1, 2, 3):
            code = run_cli(
                "run",
                "--rules", PRINTER / "printer.rules",
                "--scene", PRINTER / "printer.scene",
                "--scenario", PRINTER / "first_uses.scenario",
                "--state-file", state,
                "--trace", tmp_path / "out.trace",
            )
            assert code == 0
            assert state.read_text() == f"user.app_use_count={expected}\n"
        capsys.readouterr()

    def test_extra_persisted_keys_survive(self, tmp_path, capsys):
        state = tmp_path / "app.state"
        state.write_text("env.calibration=1.250000\nuser.app_use_count=7\n")
        run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
            "--state-file", state,
            "--trace", tmp_path / "out.trace",
        )
        assert state.read_text() == "env.calibration=1.250000\nuser.app_use_count=8\n"
        capsys.readouterr()

    def test_runtime_error_still_saves_the_state_file(self, tmp_path, capsys):
        """The oscillator never quiesces: run exits 3 and still saves the
        state, the use counter bumped."""
        state = tmp_path / "app.state"
        state.write_text("user.app_use_count=4\n")
        code = run_cli(
            "run",
            "--rules", CASCADE / "oscillator.rules",
            "--scene", CASCADE / "oscillator.scene",
            "--scenario", CASCADE / "oscillator.scenario",
            "--state-file", state,
        )
        assert code == 3
        assert "runtime error" in capsys.readouterr().err
        assert state.read_text() == "user.app_use_count=5\n"

    def test_malformed_state_file_exits_two(self, tmp_path, capsys):
        state = tmp_path / "app.state"
        state.write_text("user.app_use_count\n")
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
            "--state-file", state,
        )
        assert code == 2
        capsys.readouterr()

    def test_non_finite_state_value_exits_two(self, tmp_path, capsys):
        state = tmp_path / "app.state"
        state.write_text("env.x=1e400\n")
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
            "--state-file", state,
        )
        assert code == 2
        assert f"{state}: error: line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ['"x"', "true", "1.5"])
    def test_non_int_use_count_exits_two(self, tmp_path, capsys, count):
        state = tmp_path / "app.state"
        state.write_text(f"user.app_use_count={count}\n")
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
            "--state-file", state,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{state}: error: user.app_use_count must be an int" in captured.err
        assert state.read_text() == f"user.app_use_count={count}\n"

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_state_value_of_another_type_exits_two(self, tmp_path, capsys, command):
        state = tmp_path / "app.state"
        state.write_bytes(b"env.luminance=true\n")
        golden = ["--golden", PRINTER / "golden" / "dark_switch.trace"] if command == "verify" else []
        code = run_cli(
            command,
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
            "--state-file", state,
            *golden,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{state}: error: env.luminance holds bool, but the scenario sets float\n"
        assert state.read_bytes() == b"env.luminance=true\n"
        assert [p.name for p in tmp_path.iterdir()] == ["app.state"]

    def test_state_use_count_of_another_type_than_the_scenario_exits_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("scenario s\nat 0 set user.app_use_count = 1.5\n")
        state = tmp_path / "app.state"
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", scenario,
            "--state-file", state,
        )
        assert code == 2
        assert "user.app_use_count holds int, but the scenario sets float" in capsys.readouterr().err
        assert not state.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_state_value_of_another_type_than_set_feature_exits_two(self, tmp_path, capsys, command):
        rules = tmp_path / "r.rules"
        rules.write_text("condition c: env.x == true\nrule R when c do set_feature(env.y, 1) category Style\n")
        scene = tmp_path / "s.scene"
        scene.write_text("element a at (0.0,0.0,0.0)\n")
        scenario = tmp_path / "s.scenario"
        scenario.write_text("scenario s\nat 0 set env.x = true\n")
        state = tmp_path / "app.state"
        state.write_bytes(b"env.y=true\n")
        golden = tmp_path / "g.trace"
        golden.write_text("")
        argv = [command, "--rules", rules, "--scene", scene, "--scenario", scenario, "--state-file", state]
        if command == "verify":
            argv += ["--golden", golden]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{state}: error: env.y holds bool, but rule 'R' writes int\n"
        assert state.read_bytes() == b"env.y=true\n"

    @pytest.mark.parametrize(
        "before", [None, b"env.calibration=1.250000\nuser.app_use_count=7\n"], ids=["absent", "present"]
    )
    def test_unwritable_trace_leaves_the_state_file(self, tmp_path, capsys, before):
        state = tmp_path / "app.state"
        if before is not None:
            state.write_bytes(before)
        out_file = tmp_path / "no" / "x.trace"
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
            "--state-file", state,
            "--trace", out_file,
        )
        assert code == 2
        assert capsys.readouterr().err == f"{out_file}: error: No such file or directory\n"
        if before is None:
            assert not state.exists()
        else:
            assert state.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["app.state"])

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, capsys, monkeypatch, failing):
        import adaptkit.cli

        state = tmp_path / "app.state"
        state.write_text("env.calibration=1.250000\nuser.app_use_count=7\n")

        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(adaptkit.cli.os, failing, fail)
        code = run_cli(
            "run",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "first_uses.scenario",
            "--state-file", state,
        )
        assert code == 2
        assert f"{state}: error: No space left on device" in capsys.readouterr().err
        assert state.read_text() == "env.calibration=1.250000\nuser.app_use_count=7\n"
        assert [p.name for p in tmp_path.iterdir()] == ["app.state"]


class TestVerify:
    def test_golden_match(self, capsys):
        code = run_cli(
            "verify",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
            "--golden", PRINTER / "golden" / "dark_switch.trace",
        )
        assert code == 0
        capsys.readouterr()

    def test_workflow_golden_match(self, capsys):
        code = run_cli(
            "verify",
            "--rules", WAREHOUSE / "warehouse.rules",
            "--scene", WAREHOUSE / "warehouse.scene",
            "--scenario", WAREHOUSE / "single_order.scenario",
            "--workflow", WAREHOUSE / "single_order.workflow",
            "--golden", WAREHOUSE / "golden" / "single_order.trace",
        )
        assert code == 0
        capsys.readouterr()

    def test_edited_golden_mismatch_names_line(self, tmp_path, capsys):
        lines = (PRINTER / "golden" / "dark_switch.trace").read_text().splitlines()
        lines[2] = "E0 C1 S2 COND distance_to_user_big -> true"
        edited = tmp_path / "edited.trace"
        edited.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "verify",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
            "--golden", edited,
        )
        assert code == 1
        assert "mismatch at line 3" in capsys.readouterr().err

    def test_max_cascade_flag(self, capsys):
        # the chain settles in three cycles: two are too few
        argv = [
            "verify",
            "--rules", CASCADE / "chain.rules",
            "--scene", CASCADE / "chain.scene",
            "--scenario", CASCADE / "chain.scenario",
            "--golden", CASCADE / "golden" / "chain.trace",
        ]
        assert run_cli(*argv) == 0
        assert run_cli(*argv, "--max-cascade", 3) == 0
        assert run_cli(*argv, "--max-cascade", 2) == 3
        assert "runtime error" in capsys.readouterr().err
        assert run_cli(*argv, "--max-cascade", 0) == 2
        assert "--max-cascade" in capsys.readouterr().err

    def test_missing_golden_exits_two(self, capsys):
        code = run_cli(
            "verify",
            "--rules", PRINTER / "printer.rules",
            "--scene", PRINTER / "printer.scene",
            "--scenario", PRINTER / "dark_switch.scenario",
            "--golden", "/no/such/golden.trace",
        )
        assert code == 2
        capsys.readouterr()
