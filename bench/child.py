"""One benchmark process: set up one workload, run it, check every output.

Usage (started by run.py, one process at a time):

    python3 bench/child.py MODE WORKLOAD SCALE SECONDS EXPECTED

MODE is `setup` (set up once and report the time), `measure` (one untimed
warm-up operation, then untraced operations, for SECONDS) or `trace`
(untraced and traced passes alternating for SECONDS, spans included in the
result).  At least one operation is timed; another starts only while one as
long as the median fits in SECONDS.  Every set-up and operation is timed
through `gauge.Gauge`, which also reports the machine's speed while it ran.
The last line of stdout is one JSON object.  The workload seed reaches this
process only as PYTHONHASHSEED.
"""

# Only modules the interpreter has loaded at start-up come before matedrip
# (gauge.py adds the builtin _signal), so setup_s includes everything
# importing matedrip pulls in; the rest of this file imports what it needs
# inside functions.
import os
import sys
import time

from gauge import Gauge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_matedrip():
    import matedrip
    return matedrip


def _setup(name, scale, gauge):
    """Import matedrip from the checkout's src/ and set the workload up.

    Returns the workload, its parameters, the package, the set-up context,
    and the set-up time in seconds as measured and at reference speed.
    Both count the import and the workload's set-up, not the import of the
    benchmark's own modules in between.
    """
    matedrip, imported, import_scale = gauge.measure(_import_matedrip)
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(matedrip.__file__).startswith(src):
        raise ImportError(f"matedrip imported from {matedrip.__file__}, not from {src}")
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    params = workload.params[scale]
    ctx, built, build_scale = gauge.measure(workload.setup, matedrip, ROOT, params)
    setup_s = imported + built
    return workload, params, matedrip, ctx, setup_s, imported * import_scale + built * build_scale


def _timed(workload, md, ctx, gauge):
    """(wall_s, scale, outcome) of one operation; see Gauge.measure."""
    raw, wall, scale = gauge.measure(workload.run, md, ctx)
    return wall, scale, workload.reduce(raw)


class _Checker:
    """Counts operations and failures; every output is checked."""

    def __init__(self, workload, pinned):
        self.workload, self.pinned = workload, pinned
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.output = None
        self.digest = None

    def check(self, outcome):
        import hashlib
        import json
        problems = self.workload.check(outcome.output, self.pinned)
        digest = hashlib.sha256(json.dumps(outcome.output, sort_keys=True).encode()).hexdigest()
        if self.digest is None:
            self.output, self.digest = outcome.output, digest
        elif digest != self.digest:
            problems.append(f"output {digest[:12]} differs from the run's first output {self.digest[:12]}")
        self.attempted += outcome.verdicts
        if problems:
            # one problem per failed verdict, at least one per failed output
            self.failed += max(1, min(outcome.verdicts, len(problems)))
            self.problems.extend(problems)

    def fail(self, message, attempted=0):
        self.attempted += attempted
        self.failed += 1
        self.problems.append(message)

    def result(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems[:20], "output_sha256": self.digest,
                "output": self.output}


def _time_left(deadline, durations) -> bool:
    """True while one more operation, as long as the median one, fits."""
    import statistics
    return time.perf_counter() + statistics.median(durations) <= deadline


def _measure(workload, md, ctx, checker, seconds, gauge):
    """Run one operation untimed, so the heap has grown and the interpreter
    has specialised its code, then time operations until `seconds` are up."""
    walls, scales, vesicles, verdicts = [], [], [], []
    deadline = time.perf_counter() + seconds
    warm = False
    while True:
        try:
            wall, scale, outcome = _timed(workload, md, ctx, gauge)
        except Exception as exc:  # counted as a failed operation, run ends
            checker.fail(f"{type(exc).__name__}: {exc}", attempted=1)
            break
        checker.check(outcome)
        if not warm:
            warm = True
            continue
        walls.append(wall)
        scales.append(scale)
        vesicles.append(outcome.vesicles)
        verdicts.append(outcome.verdicts)
        if not _time_left(deadline, walls):
            break
    import resource
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": walls, "scale": scales, "vesicles": vesicles, "verdicts": verdicts,
            "peak_rss_mb": rss_mb}


def _trace(workload, md, ctx, checker, seconds, params, gauge):
    """Alternate untraced and traced passes; a traced pass includes set-up."""
    import statistics

    from tracer import Tracer, combine_passes

    tracer = Tracer(md)
    untraced, traced, passes, durations = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        try:
            wall, _, outcome = _timed(workload, md, ctx, gauge)
            checker.check(outcome)
            untraced.append(wall)
            run_id = f"pass-{len(traced) + 1}"
            tracer.install(run_id)
            try:
                traced_ctx = workload.setup(md, ROOT, params)
                wall, _, outcome = _timed(workload, md, traced_ctx, gauge)
            finally:
                tracer.uninstall()
        except Exception as exc:  # counted as a failed operation, run ends
            checker.fail(f"{type(exc).__name__}: {exc}", attempted=1)
            break
        checker.check(outcome)   # traced output must equal the untraced one
        traced.append(wall)
        passes.append(tracer.pass_metrics(run_id))
        durations.append(time.perf_counter() - started)
        if not _time_left(deadline, durations):
            break
    metrics, problems = combine_passes(passes) if passes else ({}, ["no traced pass"])
    for problem in problems:
        checker.fail(problem)
    if traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"per_layer": metrics, "untraced_wall_s": untraced, "traced_wall_s": traced,
            "per_pass": passes, **tracer.dump()}


def main(argv):
    mode, name, scale, seconds, expected = argv[:5]
    gauge = Gauge()
    workload, params, md, ctx, setup_s, setup_ref_s = _setup(name, scale, gauge)
    if mode == "setup":
        print('{"setup_s": %r, "setup_ref_s": %r}' % (setup_s, setup_ref_s))
        return 0
    import json
    with open(expected, encoding="utf-8") as fh:
        pinned = json.load(fh)[scale][name]
    checker = _Checker(workload, pinned)
    if mode == "measure":
        result = _measure(workload, md, ctx, checker, float(seconds), gauge)
    else:
        result = _trace(workload, md, ctx, checker, float(seconds), params, gauge)
    result.update(checker.result(), setup_s=setup_s, setup_ref_s=setup_ref_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
