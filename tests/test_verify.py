import pytest

from conftest import machine_path
from matedrip import Bounds
from matedrip.cli import main
from matedrip.compilers import CompileOptions
from matedrip.regmach import parse_machine
from matedrip.tp import MAX_STEPS
from matedrip.verify import format_report, run_verify, vector_of
from matedrip import Multiset


def test_vector_of():
    assert vector_of(Multiset.parse("a1^2 a2"), 2) == (2, 1)
    assert vector_of(Multiset.parse("."), 2) == (0, 0)


def test_verify_even_thm1(even):
    report = run_verify(even, "even.rm", "thm1", bound=4, fuel=200,
                        bounds=Bounds(12, 20000, 200))
    assert report.matched and not report.pruned
    assert report.oracle == {(0,), (2,), (4,)}
    assert report.system == {(0,), (2,), (4,)}
    assert report.excluded == frozenset()
    assert report.engine_truncated  # bounded closure always hits the frontier
    text = format_report(report)
    assert "verdict: MATCH" in text and "pruned: no" in text


def test_verify_excludes_zero_vector_for_seeded(even):
    report = run_verify(even, "even.rm", "cor2", bound=4, fuel=200,
                        bounds=Bounds(12, 20000, 200))
    assert report.matched
    assert report.excluded == {(0,)}
    assert "excluded: 0" in format_report(report)


def test_verify_mismatch_reported(even, trap):
    report = run_verify(trap, "trap.rm", "thm1", bound=2, fuel=200,
                        bounds=Bounds(6, 4000, 100),
                        opts=CompileOptions(fidelity="faithful"))
    assert not report.matched
    assert report.oracle == frozenset()
    assert (1,) in report.system
    assert (1,) in report.unexpected
    assert "verdict: MISMATCH" in format_report(report)


def test_verify_trap_guarded_matches(trap):
    report = run_verify(trap, "trap.rm", "thm1", bound=2, fuel=200,
                        bounds=Bounds(8, 4000, 100))
    assert report.matched and report.system == frozenset()


def test_verify_reports_beyond_bound(even):
    # a slightly looser size cap reaches a1^6, which lies beyond the bound box
    report = run_verify(even, "even.rm", "thm1", bound=4, fuel=400,
                        bounds=Bounds(16, 30000, 300))
    assert report.matched
    assert (6,) in report.beyond


@pytest.mark.parametrize("construction", ["thm1", "cor2", "cor3", "thm4"])
def test_negative_max_steps_is_refused(even, construction):
    with pytest.raises(ValueError, match="max_steps must be non-negative"):
        run_verify(even, "even.rm", construction, bound=2, fuel=100,
                   bounds=Bounds(6, 500, 20), max_steps=-5)


@pytest.mark.parametrize("max_steps", [True, 2.5])
def test_a_step_budget_that_is_no_int_is_refused(even, max_steps):
    with pytest.raises(ValueError, match=f"^max_steps must be an int, not {max_steps}$"):
        run_verify(even, "even.rm", "thm4", bound=2, fuel=100,
                   bounds=Bounds(6, 500, 20), max_steps=max_steps)


def test_a_step_budget_whose_rerun_passes_the_limit_is_refused(even, capsys):
    # the stability re-run takes 10 more steps, so a budget within 10 of
    # MAX_STEPS is refused, and the message names the budget given
    message = "max_steps 999991 takes the stability re-run over 1000000 steps"
    for construction in ("thm1", "thm4"):
        with pytest.raises(ValueError, match=message):
            run_verify(even, "even.rm", construction, bound=2, fuel=100,
                       bounds=Bounds(6, 500, 20), max_steps=MAX_STEPS - 9)
    assert main(["verify", "thm4", machine_path("even.rm"), "--max-steps", "999991"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: thm4's cell-3 zero check takes a "
                   "zero guess about one register while another is nonzero")
def test_thm4_zero_test_beside_a_nonzero_register():
    # accepts every input; its normalized form zero-tests register 1 while
    # register 2 holds 1
    machine = parse_machine("REGISTERS 2\nINPUTS 1\nSTART q0\nq0 ADD 2 stop\nstop HALT\n")
    report = run_verify(machine, "add2", "thm4", bound=2, fuel=200,
                        bounds=Bounds(12, 20000, 200), max_steps=60)
    assert report.system == report.oracle == {(0,), (1,), (2,)}
