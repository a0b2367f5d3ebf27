"""The benchmark's span wrappers still find and see the engines' hooks.

`bench/tracer.py` replaces module attributes such as `tts.apply_drip1` and
`tp.tp_step` from outside; an engine refactor that drops or bypasses one of
them would silently zero a per-layer metric.
"""

import runpy
from pathlib import Path

import matedrip
from matedrip import Bounds, CompileOptions, compile_machine

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_hooks_cover_both_engines(even):
    bench_tracer = runpy.run_path(str(TRACER))  # writes no bytecode under bench/
    for module, attr, *_ in bench_tracer["_SPANS"] + bench_tracer["_CALLS"]:
        owner = matedrip.Multiset if module is None else getattr(matedrip, module)
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"

    cor3 = compile_machine(even, "cor3", CompileOptions(fidelity="faithful"))
    thm4 = compile_machine(even, "thm4", CompileOptions(fidelity="faithful"))
    bounds = Bounds(max_size=6, max_population=300, max_iterations=20)
    originals = (matedrip.tts.apply_drip1, matedrip.tp.tp_step)
    tracer = bench_tracer["Tracer"](matedrip)
    tracer.install("hooks")
    try:
        matedrip.tts.closure(cor3, bounds)
        matedrip.tp.tp_run(thm4, 2, bounds)
    finally:
        tracer.uninstall()
    assert (matedrip.tts.apply_drip1, matedrip.tp.tp_step) == originals

    metrics = tracer.pass_metrics("hooks")
    assert metrics["rules.apply_drip1.calls"] > 0
    assert metrics["tp.tp_step.calls"] == 2
    assert metrics["tp.tp_step.admitted"] > 0
    assert metrics["tts.closure.population"] > 0
