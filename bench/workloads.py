"""The four benchmark workloads, driven through the public API of matedrip.

A workload has a set-up step (fixture load, and for the explorations compile
and validate), an operation that is timed, and a check of the operation's output against the values
pinned in `expected.json`.  Every function here receives the `matedrip`
package as `md` and looks each entry point up through its module attribute
at call time, so the span wrappers of `tracer.py` see every call.

Sizes come in two scales: `full` is what the benchmark measures, `tiny` is
what `selfcheck.py` runs.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

FUEL = 500
CONSTRUCTIONS = ("thm1", "cor2", "cor3", "thm4")

# (fixture, bound, (max_size, max_population, max_iterations), max_steps):
# the acceptance table of the guarded language-equivalence check.
SWEEP_CASES = (
    ("even.rm", 4, (12, 20000, 200), 40),
    ("mod3.rm", 6, (16, 30000, 300), 60),
    ("eq.rm", 3, (16, 30000, 300), 60),
    ("trap.rm", 2, (8, 4000, 100), 60),
)


@dataclass(frozen=True)
class Outcome:
    """What one timed operation produced, already reduced to plain data."""

    output: Any        # canonical JSON-able form, compared with the pins
    vesicles: int      # admitted vesicles
    verdicts: int      # checked verdicts: 1 per exploration, 16 per sweep


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict                          # scale -> parameters
    setup: Callable[[Any, str, dict], Any]
    run: Callable[[Any, Any], Any]        # the timed operation
    reduce: Callable[[Any], Outcome]      # runs after timing stops
    check: Callable[[Any, Any], list]     # (output, pinned) -> mismatches


def _machine(md, root: str, fixture: str):
    return md.regmach.load_machine(os.path.join(root, "machines", fixture))


# -- explorations of one faithful system on even.rm --------------------------


def _setup_exploration(md, root, p):
    machine = _machine(md, root, "even.rm")
    opts = md.CompileOptions(fidelity="faithful")
    system = md.compilers.compile_machine(machine, p["construction"], opts)
    if isinstance(system, md.TissueSystem):
        problems, _ = md.tp.validate_tp(system)
    else:
        problems = md.tts.validate_tts(system)
    if problems:
        raise ValueError("compiled system does not validate: " + "; ".join(problems))
    return system, md.Bounds(*p["bounds"]), p.get("steps")


def _run_closure(md, ctx):
    system, bounds, _ = ctx
    return md.tts.closure(system, bounds)


def tube_digest(tube) -> str:
    """sha256 of the tube's rendered vesicles, sorted, one per line."""
    text = "\n".join(sorted(v.render() for v in tube))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reduce_closure(state) -> Outcome:
    output = {
        "population": state.population,
        "iterations": state.iterations,
        "pruned": state.pruned,
        "tube_sha256": [tube_digest(t) for t in state.contents],
    }
    return Outcome(output, state.population, 1)


def _run_tp(md, ctx):
    system, bounds, steps = ctx
    return md.tp.tp_run(system, steps, bounds)


def _reduce_tp(result) -> Outcome:
    result_set, trace = result
    output = {
        "results": sorted(v.render() for v in result_set),
        "populations": [list(p) for p in trace.populations],
        "pruned": trace.pruned,
    }
    return Outcome(output, sum(map(sum, trace.populations)), 1)


def _check_fields(output, pinned) -> list[str]:
    return [f"{key}: got {output.get(key)!r}, pinned {want!r}"
            for key, want in pinned.items() if output.get(key) != want]


# -- the guarded verification sweep -------------------------------------------


def _setup_sweep(md, root, p):
    return [(_machine(md, root, fixture), fixture, bound, limits, steps)
            for fixture, bound, limits, steps in SWEEP_CASES
            if fixture in p["fixtures"]]


@contextmanager
def _count_admitted(verify, counter: list):
    """Add each exploration's admitted vesicles to counter[0].

    Reads the state that `closure`/`tp_run` return inside `run_verify`: one
    addition per exploration, no work per vesicle.
    """
    closure, tp_run = verify.closure, verify.tp_run

    def counted_closure(system, bounds):
        state = closure(system, bounds)
        counter[0] += state.population
        return state

    def counted_tp_run(system, max_steps, bounds):
        result_set, trace = tp_run(system, max_steps, bounds)
        counter[0] += sum(map(sum, trace.populations))
        return result_set, trace

    verify.closure, verify.tp_run = counted_closure, counted_tp_run
    try:
        yield
    finally:
        verify.closure, verify.tp_run = closure, tp_run


def _run_sweep(md, cases):
    counter = [0]
    reports = []
    with _count_admitted(md.verify, counter):
        for machine, fixture, bound, limits, steps in cases:
            for construction in CONSTRUCTIONS:
                reports.append(md.verify.run_verify(
                    machine, fixture, construction, bound=bound, fuel=FUEL,
                    bounds=md.Bounds(*limits), max_steps=steps,
                    opts=md.CompileOptions()))
    return reports, counter[0]


def _vectors(vectors) -> list[list[int]]:
    return sorted(list(v) for v in vectors)


def _reduce_sweep(result) -> Outcome:
    reports, admitted = result
    output = [{
        "machine": r.machine,
        "construction": r.construction,
        "k": r.k,
        "verdict": r.verdict,
        "pruned": r.pruned,
        "oracle": _vectors(r.oracle),
        "system": _vectors(r.system),
        "excluded": _vectors(r.excluded),
    } for r in reports]
    return Outcome(output, admitted, len(reports))


def _check_sweep(output, pinned) -> list[str]:
    """Check each verdict against the hand-written accepted vectors.

    Returns one message per failed verdict.
    """
    accepted = pinned["accepted"]
    failures = []
    expected_cases = [(f, c) for f in pinned["fixtures"] for c in CONSTRUCTIONS]
    got_cases = [(r["machine"], r["construction"]) for r in output]
    if got_cases != expected_cases:
        return [f"cases: got {got_cases}, expected {expected_cases}"]
    for r in output:
        problems = []
        want = sorted(accepted[r["machine"]])
        excluded = [[0] * r["k"]] if r["construction"] in ("cor2", "cor3") else []
        if r["verdict"] != "match":
            problems.append(f"verdict {r['verdict']}")
        if r["pruned"]:
            problems.append("pruned under looser bounds")
        if r["oracle"] != want:
            problems.append(f"oracle {r['oracle']}, accepted {want}")
        if r["excluded"] != excluded:
            problems.append(f"excluded {r['excluded']}, expected {excluded}")
        system = [v for v in r["system"] if v not in excluded]
        if system != [v for v in want if v not in excluded]:
            problems.append(f"system {r['system']}, accepted {want}")
        if problems:
            failures.append(f"{r['machine']}/{r['construction']}: " + "; ".join(problems))
    return failures


WORKLOADS = {w.name: w for w in (
    Workload(
        "tts-mate-faithful",
        {"full": {"construction": "thm1", "bounds": (10, 6000, 400)},
         "tiny": {"construction": "thm1", "bounds": (10, 400, 400)}},
        _setup_exploration, _run_closure, _reduce_closure, _check_fields),
    Workload(
        "tts-drip1-faithful",
        {"full": {"construction": "cor3", "bounds": (10, 50000, 400)},
         "tiny": {"construction": "cor3", "bounds": (10, 2000, 400)}},
        _setup_exploration, _run_closure, _reduce_closure, _check_fields),
    Workload(
        "tp-thm4-faithful",
        {"full": {"construction": "thm4", "bounds": (12, 20000, 200), "steps": 40},
         "tiny": {"construction": "thm4", "bounds": (12, 3000, 200), "steps": 24}},
        _setup_exploration, _run_tp, _reduce_tp, _check_fields),
    Workload(
        "verify-guarded-sweep",
        {"full": {"fixtures": [c[0] for c in SWEEP_CASES]},
         "tiny": {"fixtures": ["even.rm", "trap.rm"]}},
        _setup_sweep, _run_sweep, _reduce_sweep, _check_sweep),
)}
