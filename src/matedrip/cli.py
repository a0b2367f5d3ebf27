"""Command line front end.

Exit codes: 0 on success/match, 1 on semantic failure (input rejected,
verification mismatch), 2 on usage, parse or validation errors.  Result
lines go to stdout; warnings such as PRUNED go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compilers import CONSTRUCTIONS, CompileOptions, compile_machine, metrics
from .multiset import directives, is_number
from .regmach import enumerate_accepted, load_machine, run
from .tp import TissueSystem, check_steps, parse_tp, render_tp, validate_tp
from .tts import Bounds, parse_tts, render_tts
from .verify import DEFAULT_MAX_STEPS, format_report, render_vector, run_system, run_verify


def _add_engine_flags(parser: argparse.ArgumentParser):
    defaults = Bounds()
    parser.add_argument("--max-size", type=int, default=defaults.max_size,
                        help="largest vesicle kept during exploration (default %(default)s)")
    parser.add_argument("--max-pop", type=int, default=defaults.max_population,
                        help="total vesicle cap across compartments (default %(default)s)")
    parser.add_argument("--max-iter", type=int, default=defaults.max_iterations,
                        help="closure round cap for tube systems (default %(default)s)")
    parser.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                        help="step budget for tissue systems (default %(default)s)")
    parser.add_argument("--no-keep-empty", action="store_true",
                        help="drop empty vesicles (default: keep them)")


def _add_machine_flags(parser: argparse.ArgumentParser, bound: bool):
    """--fuel, and --bound when `bound` holds, for a command that runs a
    register machine."""
    if bound:
        parser.add_argument("--bound", type=int, default=4,
                            help="largest value of each input coordinate (default %(default)s)")
    parser.add_argument("--fuel", type=int, default=10000,
                        help="step budget of each machine run (default %(default)s)")


def _add_compile_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--faithful", action="store_true",
                        help="literal transcription; no loading guard (default: guarded)")
    parser.add_argument("--no-normalize", action="store_true",
                        help="do not add the register draining tail before HALT "
                             "(default: add it)")


def _compile_options(args) -> CompileOptions:
    """The compile flags' options, for `compile` and `verify`."""
    return CompileOptions(fidelity="faithful" if args.faithful else "guarded",
                          normalize=not args.no_normalize)


def _bounds_from(args) -> Bounds:
    """The engine flags' bounds.  A negative --max-steps is refused here for
    every system kind, not only by the tissue runs that read it."""
    check_steps(args.max_steps)
    return Bounds(args.max_size, args.max_pop, args.max_iter, not args.no_keep_empty)


def _parse_input_vector(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    tokens = text.replace(",", " ").split()
    for tok in tokens:
        if not is_number(tok):
            raise ValueError(f"--input takes non-negative numbers, got {tok!r}")
    return tuple(map(int, tokens))


def _load_system(path: str):
    """Parse a `.tp` file if its first SYSTEM directive, on any line, says
    TP, else a `.tts` file."""
    text = Path(path).read_text(encoding="utf-8")
    kind = next((rest.upper() for _, head, rest in directives(text) if head.upper() == "SYSTEM"), "")
    return parse_tp(text) if kind == "TP" else parse_tts(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matedrip",
                                     description="mate/drip vesicle computing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    rm = sub.add_parser("rm", help="run or enumerate a register machine")
    rm_sub = rm.add_subparsers(dest="rm_command", required=True)
    rm_run = rm_sub.add_parser("run", help="run one input vector")
    rm_run.add_argument("file")
    rm_run.add_argument("--input", default="", help="comma separated input vector (default: empty)")
    _add_machine_flags(rm_run, bound=False)
    rm_enum = rm_sub.add_parser("enum", help="enumerate accepted vectors up to a bound")
    rm_enum.add_argument("file")
    _add_machine_flags(rm_enum, bound=True)

    comp = sub.add_parser("compile", help="compile a register machine to a system file")
    comp.add_argument("construction", choices=CONSTRUCTIONS)
    comp.add_argument("file")
    comp.add_argument("-o", "--output", help="output file (default: stdout)")
    _add_compile_flags(comp)

    met = sub.add_parser("metrics", help="print descriptional metrics of a system file")
    met.add_argument("file")

    runp = sub.add_parser("run", help="explore a system file and print its results")
    runp.add_argument("file")
    _add_engine_flags(runp)

    ver = sub.add_parser("verify", help="compare a compiled system against the machine")
    ver.add_argument("construction", choices=CONSTRUCTIONS)
    ver.add_argument("file")
    _add_machine_flags(ver, bound=True)
    _add_compile_flags(ver)
    _add_engine_flags(ver)
    return parser


def cmd_rm(args) -> int:
    machine = load_machine(args.file)
    if args.rm_command == "run":
        result = run(machine, _parse_input_vector(args.input), args.fuel)
        if result.accepted:
            print("Accepted")
            return 0
        print(f"NotAccepted({result.reason})")
        return 1
    accepted = enumerate_accepted(machine, args.bound, args.fuel)
    for vec in sorted(accepted):
        print(render_vector(vec))
    return 0


def cmd_compile(args) -> int:
    machine = load_machine(args.file)
    system = compile_machine(machine, args.construction, _compile_options(args))
    text = render_tp(system) if isinstance(system, TissueSystem) else render_tts(system)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(metrics(system).summary(), file=sys.stderr)
    return 0


def cmd_metrics(args) -> int:
    system = _load_system(args.file)
    print(metrics(system).summary())
    return 0


def cmd_run(args) -> int:
    system = _load_system(args.file)
    bounds = _bounds_from(args)
    if isinstance(system, TissueSystem):
        _, warnings = validate_tp(system)  # parse_tp has raised on any problem
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
    result_set, pruned = run_system(system, bounds, args.max_steps)
    for vesicle in sorted(result_set, key=lambda m: m.render()):
        print(vesicle.render())
    if pruned:
        print("PRUNED: exploration truncated by bounds; results may be incomplete",
              file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    machine = load_machine(args.file)
    report = run_verify(
        machine,
        args.file,
        args.construction,
        bound=args.bound,
        fuel=args.fuel,
        bounds=_bounds_from(args),
        max_steps=args.max_steps,
        opts=_compile_options(args),
    )
    print(format_report(report))
    return 0 if report.matched else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "rm": cmd_rm,
        "compile": cmd_compile,
        "metrics": cmd_metrics,
        "run": cmd_run,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # the package's own errors are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
