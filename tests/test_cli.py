import argparse

from matedrip import Bounds
from matedrip.cli import _bounds_from, build_parser, main

from conftest import machine_path


def test_rm_enum_output(capsys):
    code = main(["rm", "enum", machine_path("even.rm"), "--bound", "5", "--fuel", "100"])
    assert code == 0
    assert capsys.readouterr().out == "0\n2\n4\n"


def test_rm_enum_pairs(capsys):
    code = main(["rm", "enum", machine_path("eq.rm"), "--bound", "2", "--fuel", "100"])
    assert code == 0
    assert capsys.readouterr().out == "0,0\n1,1\n2,2\n"


def test_rm_run_exit_codes(capsys):
    assert main(["rm", "run", machine_path("even.rm"), "--input", "2", "--fuel", "100"]) == 0
    assert capsys.readouterr().out == "Accepted\n"
    assert main(["rm", "run", machine_path("even.rm"), "--input", "3", "--fuel", "100"]) == 1
    assert capsys.readouterr().out == "NotAccepted(timeout)\n"
    assert main(["rm", "run", machine_path("even.rm"), "--input", "0", "--fuel", "1"]) == 0
    assert capsys.readouterr().out == "Accepted\n"


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["compile", "thm9", machine_path("even.rm")]) == 2
    capsys.readouterr()


def test_input_vector_numerals_exit_2(capsys):
    for bad in ("-3", "1_0", "+1", "\u0662"):
        assert main(["rm", "run", machine_path("even.rm"), "--input", bad]) == 2
        assert "--input" in capsys.readouterr().err
    assert main(["rm", "run", machine_path("even.rm"), "--input", "10"]) == 0
    capsys.readouterr()


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.rm"
    bad.write_text("REGISTERS 1\nINPUTS 1\nSTART l0\nl0 WAT\n")
    assert main(["rm", "run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["rm", "run", str(tmp_path / "missing.rm")]) == 2
    capsys.readouterr()


def test_compile_run_metrics_flow(tmp_path, capsys):
    out = tmp_path / "even.tts"
    assert main(["compile", "thm1", machine_path("even.rm"), "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "tubes=3" in err and "mate=5" in err

    assert main(["metrics", str(out)]) == 0
    line = capsys.readouterr().out
    assert "TTS" in line and "axiom=3" in line and "drip=0" in line

    assert main(["run", str(out), "--max-size", "12", "--max-pop", "20000",
                 "--max-iter", "200"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ".\na1^2\na1^4\n"
    assert "PRUNED" in captured.err


def test_compile_stdout_when_no_output_file(capsys):
    assert main(["compile", "cor3", machine_path("even.rm")]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("SYSTEM TTS\n")
    assert "drip1=" in captured.err


def test_compiled_file_reserialize_identical(tmp_path, capsys):
    for construction in ("thm1", "cor2", "cor3", "thm4"):
        out = tmp_path / f"m.{construction}"
        assert main(["compile", construction, machine_path("mod3.rm"), "-o", str(out)]) == 0
        capsys.readouterr()
        first = out.read_bytes()
        # recompile and reserialize through a load
        again = tmp_path / f"m2.{construction}"
        assert main(["compile", construction, machine_path("mod3.rm"), "-o", str(again)]) == 0
        capsys.readouterr()
        assert again.read_bytes() == first
        from matedrip import load_tp, load_tts, render_tp, render_tts

        if construction == "thm4":
            assert render_tp(load_tp(out)).encode() == first
        else:
            assert render_tts(load_tts(out)).encode() == first


def test_run_undersized_cap_warns_subset(tmp_path, capsys):
    out = tmp_path / "even.tts"
    main(["compile", "thm1", machine_path("even.rm"), "-o", str(out)])
    capsys.readouterr()
    main(["run", str(out), "--max-size", "12", "--max-iter", "200"])
    full = set(capsys.readouterr().out.splitlines())
    main(["run", str(out), "--max-size", "6", "--max-iter", "200"])
    captured = capsys.readouterr()
    small = set(captured.out.splitlines())
    assert small <= full
    assert "PRUNED" in captured.err


def test_verify_cli_exit_codes(capsys):
    assert main(["verify", "thm4", machine_path("even.rm"), "--bound", "4",
                 "--max-steps", "40", "--max-size", "12"]) == 0
    out = capsys.readouterr().out
    assert "verdict: MATCH" in out and "pruned: no" in out

    assert main(["verify", "thm1", machine_path("trap.rm"), "--faithful", "--bound", "2",
                 "--max-size", "6", "--max-pop", "4000", "--max-iter", "100"]) == 1
    out = capsys.readouterr().out
    assert "verdict: MISMATCH" in out

    assert main(["verify", "thm1", machine_path("trap.rm"), "--bound", "2",
                 "--max-size", "8", "--max-pop", "4000", "--max-iter", "100"]) == 0
    capsys.readouterr()


def test_tp_run_via_cli(tmp_path, capsys):
    out = tmp_path / "even.tp"
    assert main(["compile", "thm4", machine_path("even.rm"), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", str(out), "--max-steps", "40", "--max-size", "12"]) == 0
    captured = capsys.readouterr()
    assert {".", "a1^2", "a1^4"} <= set(captured.out.splitlines())


def test_tp_file_with_spaced_system_line(tmp_path, capsys):
    """`SYSTEM  TP` reads as a tissue system, as it does for parse_tp."""
    out = tmp_path / "even.tp"
    assert main(["compile", "thm4", machine_path("even.rm"), "-o", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("SYSTEM TP\n")
    out.write_text("# tissue system\nSYSTEM  TP" + text[len("SYSTEM TP"):])

    assert main(["metrics", str(out)]) == 0
    assert capsys.readouterr().out.startswith("TP cells=5 ")
    assert main(["run", str(out), "--max-steps", "40", "--max-size", "12"]) == 0
    captured = capsys.readouterr()
    assert {".", "a1^2", "a1^4"} <= set(captured.out.splitlines())
    assert "error" not in captured.err


def test_tp_file_with_a_later_system_line(tmp_path, capsys):
    """The SYSTEM line picks the parser on any line, as for parse_tp."""
    path = tmp_path / "late.tp"
    path.write_text("ALPHABET a\nSYSTEM TP\nTERMINAL a\nCELLS 1\nOUTPUT 1\nAXIOM 1 {a}\n")
    assert main(["metrics", str(path)]) == 0
    assert capsys.readouterr().out.startswith("TP cells=1 ")
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["a"] and captured.err == ""


def test_tab_separated_system_file(tmp_path, capsys):
    path = tmp_path / "tabbed.tts"
    path.write_text("SYSTEM\tTTS\nALPHABET\ta b\nTERMINAL\ta\nTUBES\t1\nOUTPUT\t1\n"
                    "AXIOM\t1\t{a b}\nRULE\t1\tDRIP1 (. | b | . ; a , .)\n")
    assert main(["metrics", str(path)]) == 0
    assert capsys.readouterr().out.startswith("TTS tubes=1 ")
    assert main(["run", str(path)]) == 0
    assert set(capsys.readouterr().out.splitlines()) == {".", "a^2"}


def test_negative_bound_exits_2(capsys):
    for argv in (["rm", "enum", machine_path("even.rm"), "--bound", "-1"],
                 ["verify", "thm1", machine_path("even.rm"), "--bound", "-2"],
                 ["verify", "thm4", machine_path("even.rm"), "--bound", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "bound must be non-negative" in captured.err
        assert captured.out == ""


def test_fuel_over_the_limit_exits_2(capsys):
    # a fuel past regmach.MAX_FUEL is refused before any step is run
    for argv in (["rm", "run", machine_path("even.rm"), "--input", "3",
                  "--fuel", "100000000000000000000"],
                 ["rm", "enum", machine_path("even.rm"), "--bound", "2", "--fuel", "1000001"],
                 ["verify", "thm1", machine_path("even.rm"), "--fuel", "1000001"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "is over the limit of 1000000" in captured.err
        assert captured.out == ""


def test_oracle_work_over_the_limit_exits_2(capsys):
    # 10**6 vectors at fuel 10**6 pass regmach.MAX_ORACLE_STEPS, refused before any is run
    for argv in (["rm", "enum", machine_path("even.rm"), "--bound", "999999", "--fuel", "1000000"],
                 ["verify", "thm1", machine_path("even.rm"), "--bound", "999999",
                  "--fuel", "1000000"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "steps, over the limit of 100000000" in captured.err
        assert captured.out == ""


def test_unusable_alphabet_names_exit_2(tmp_path, capsys):
    # no axiom or rule could name `b^2`, and a control character is refused too
    for suffix, text, lineno in (
            ("tts", "SYSTEM TTS\nALPHABET a b^2\nTUBES 1\nOUTPUT 1\n", 2),
            ("tp", "SYSTEM TP\nALPHABET a\nCELLS 1\nOUTPUT 1\nTERMINAL a\x01b\n", 5)):
        path = tmp_path / f"bad.{suffix}"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {lineno}: symbol ")
        assert "forbidden character" in captured.err
        assert captured.out == ""


def test_oversized_oracle_box_exits_2(capsys):
    # 100001 ** 2 vectors: refused at once, by rm enum and verify alike
    for argv in (["rm", "enum", machine_path("eq.rm"), "--bound", "100000", "--fuel", "1"],
                 ["verify", "thm1", machine_path("eq.rm"), "--bound", "100000"],
                 ["verify", "thm4", machine_path("even.rm"), "--bound", "1000000"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "more than 1000000 vectors" in captured.err
        assert captured.out == ""


def test_negative_max_steps_exits_2(tmp_path, capsys):
    # only tissue runs read --max-steps, but every system kind refuses it
    for construction, suffix in (("thm1", "tts"), ("thm4", "tp")):
        out = tmp_path / f"even.{suffix}"
        assert main(["compile", construction, machine_path("even.rm"), "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", str(out), "--max-steps", "-1"]) == 2
        captured = capsys.readouterr()
        assert "max_steps must be non-negative" in captured.err
        assert captured.out == ""
    for construction in ("thm1", "cor2", "cor3", "thm4"):
        assert main(["verify", construction, machine_path("even.rm"), "--max-steps", "-5"]) == 2
        captured = capsys.readouterr()
        assert "max_steps must be non-negative" in captured.err
        assert captured.out == ""


def test_counts_past_maxsize_exit_2(tmp_path, capsys):
    head = "SYSTEM TTS\nALPHABET a\nTERMINAL a\nTUBES 1\nOUTPUT 1\n"
    for body, lineno in ((f"AXIOM 1 {{a^{10**20}}}\n", 6),
                         (f"AXIOM 1 {{a}}\nRULE 1 DRIP1 (. | a | . ; a^{10**20} , .)\n", 7)):
        path = tmp_path / "big.tts"
        path.write_text(head + body)
        for command in ("run", "metrics"):
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: line {lineno}: ") and captured.out == ""


def test_engine_flags_default_to_bounds():
    for argv in (["run", "system.tts"], ["verify", "thm1", "machine.rm"]):
        assert _bounds_from(build_parser().parse_args(argv)) == Bounds()


def _parsers(parser):
    """`parser` and every subcommand parser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_every_option_has_help_that_states_its_default():
    # each option that `verify --help`, `rm run --help` and the other
    # commands list, but --help itself, says what it does and its default
    parsers = {parser.prog: parser for parser in _parsers(build_parser())}
    assert {"matedrip verify", "matedrip rm run", "matedrip rm enum"} <= set(parsers)
    for prog, parser in parsers.items():
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                assert action.help and "default" in action.help, (prog, action.option_strings)
