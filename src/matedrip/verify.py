"""Cross-check a compiled system against the register machine it came from.

The machine interpreter enumerates the accepted vectors up to a bound; the
compiled system is explored under explicit bounds and its terminal results
are read back as vectors over a1..ak.  The comparison is restricted to the
bound box.  Because these systems grow vesicles without limit, any bounded
exploration truncates somewhere; the report's `pruned` flag therefore means
something sharper than raw truncation: the boxed result set changed when the
exploration was re-run under strictly looser bounds.  A match with
pruned=false says only that the two runs agree inside the box; both may
have been cut by the population or iteration caps, as `trap.rm --faithful`
is at the default bounds (neither run reaches the injected vector (1)).
`engine_truncated` tells whether the base run was cut.
"""

from __future__ import annotations

from .compilers import CompileOptions, compile_machine, term_symbol
from .multiset import Multiset, value_class
from .regmach import RegisterMachine, enumerate_accepted
from .tp import MAX_STEPS, TissueSystem, check_steps, tp_run
from .tts import Bounds, closure, results_of_state

Vector = tuple[int, ...]

DEFAULT_MAX_STEPS = 60


@value_class
class VerifyReport:
    machine: str
    construction: str
    fidelity: str
    normalized: bool
    k: int
    bound: int
    fuel: int
    engine_bounds: Bounds
    max_steps: int | None  # tissue runs only
    oracle: frozenset[Vector]
    system: frozenset[Vector]          # results with every coordinate <= bound
    beyond: frozenset[Vector]          # results outside the box (informational)
    excluded: frozenset[Vector]        # ignored on both sides (zero vector for cor2/cor3)
    engine_truncated: bool             # raw truncation flag of the base run
    pruned: bool                       # boxed results unstable under looser bounds
    verdict: str                       # "match" | "mismatch"
    missing: frozenset[Vector] = frozenset()
    unexpected: frozenset[Vector] = frozenset()

    @property
    def matched(self) -> bool:
        return self.verdict == "match"


def vector_of(vesicle: Multiset, k: int) -> Vector:
    return tuple(vesicle.count(term_symbol(i)) for i in range(1, k + 1))


def run_system(system, bounds: Bounds, max_steps: int) -> tuple[set[Multiset], bool]:
    """(results, pruned) of one exploration: `tp_run` for a tissue system,
    which reads `max_steps`, and `closure` for a tube system.  Both are
    looked up on this module when called, so a caller can wrap them."""
    if isinstance(system, TissueSystem):
        results, trace = tp_run(system, max_steps, bounds)
        return results, trace.pruned
    state = closure(system, bounds)
    return results_of_state(system, state), state.pruned


def render_vector(vec: Vector) -> str:
    return ",".join(str(c) for c in vec)


def render_vector_set(vectors) -> str:
    if not vectors:
        return "(none)"
    return " ".join(render_vector(v) for v in sorted(vectors))


def run_verify(
    machine: RegisterMachine,
    machine_name: str,
    construction: str,
    *,
    bound: int,
    fuel: int,
    bounds: Bounds,
    max_steps: int = DEFAULT_MAX_STEPS,
    opts: CompileOptions = CompileOptions(),
) -> VerifyReport:
    check_steps(max_steps)
    loose_steps = max_steps + 10  # the stability re-run's step budget
    if loose_steps > MAX_STEPS:
        raise ValueError(f"max_steps {max_steps} takes the stability re-run over {MAX_STEPS} steps")
    k = machine.inputs
    system = compile_machine(machine, construction, opts)
    oracle = frozenset(enumerate_accepted(machine, bound, fuel))

    results, truncated = run_system(system, bounds, max_steps)
    raw = {vector_of(v, k) for v in results}
    boxed = {v for v in raw if all(c <= bound for c in v)}
    beyond = raw - boxed

    loose, _ = run_system(system, bounds.loosened(), loose_steps)
    loose_raw = {vector_of(v, k) for v in loose}
    pruned = boxed != {v for v in loose_raw if all(c <= bound for c in v)}

    excluded: frozenset[Vector] = frozenset()
    if construction in ("cor2", "cor3"):
        excluded = frozenset({(0,) * k})

    effective_system = frozenset(boxed) - excluded
    effective_oracle = oracle - excluded
    missing = effective_oracle - effective_system
    unexpected = effective_system - effective_oracle
    verdict = "match" if not missing and not unexpected else "mismatch"

    return VerifyReport(
        machine=machine_name,
        construction=construction,
        fidelity=opts.fidelity,
        normalized=opts.normalize,
        k=k,
        bound=bound,
        fuel=fuel,
        engine_bounds=bounds,
        max_steps=max_steps if isinstance(system, TissueSystem) else None,
        oracle=oracle,
        system=frozenset(boxed),
        beyond=frozenset(beyond),
        excluded=excluded,
        engine_truncated=truncated,
        pruned=pruned,
        verdict=verdict,
        missing=frozenset(missing),
        unexpected=frozenset(unexpected),
    )


def format_report(report: VerifyReport) -> str:
    b = report.engine_bounds
    lines = [
        f"machine: {report.machine}",
        f"construction: {report.construction} ({report.fidelity}"
        + (", normalized)" if report.normalized else ", as written)"),
        f"bound: {report.bound}  fuel: {report.fuel}",
        f"engine bounds: size={b.max_size} pop={b.max_population} iter={b.max_iterations}"
        + (f" steps={report.max_steps}" if report.max_steps is not None else "")
        + f" keep-empty={'yes' if b.keep_empty else 'no'}",
        f"oracle:  {render_vector_set(report.oracle)}",
        f"system:  {render_vector_set(report.system)}",
    ]
    if report.beyond:
        lines.append(f"beyond bound: {render_vector_set(report.beyond)}")
    if report.excluded:
        lines.append(f"excluded: {render_vector_set(report.excluded)}")
    if report.missing:
        lines.append(f"missing: {render_vector_set(report.missing)}")
    if report.unexpected:
        lines.append(f"unexpected: {render_vector_set(report.unexpected)}")
    lines.append(f"engine truncated: {'yes' if report.engine_truncated else 'no'}")
    lines.append(f"pruned: {'yes' if report.pruned else 'no'}")
    lines.append(f"verdict: {report.verdict.upper()}")
    return "\n".join(lines)
