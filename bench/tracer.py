"""Span wrappers installed from outside around matedrip's public functions.

Each wrapper replaces the module attribute its caller looks up (for example
`matedrip.tts.apply_mate` for the closure and `matedrip.tp.apply_mate` for
the tissue step), or the method on the `Multiset` class.  Coarse calls
(closure, tp_run, tp_step, compile_machine, enumerate_accepted, run_verify)
are kept as spans with a name, start, end, parent span and run id.  Fine
calls (`apply_*` and the Multiset methods, over a million per run) are
aggregated per parent span instead, so memory stays bounded.  `__len__` and
`__hash__` are not wrapped, so the per-pair cost of the mate join shows up
only in the self time of `tts.closure`.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  Work a wrapper does to derive span attributes (the vesicles a
tissue step admitted or consumed) is excluded from its parent's self time.
"""

from __future__ import annotations

import statistics
import time

def _closure_attrs(args, result):
    return {"population": result.population, "iterations": result.iterations}


def _tp_run_attrs(args, result):
    return {"population": sum(map(sum, result[1].populations))}


def _tp_step_attrs(args, result):
    before, after = args[1].contents, result.contents
    return {"admitted": sum(len(a - b) for a, b in zip(after, before)),
            "consumed": sum(len(b - a) for a, b in zip(after, before))}


def _hit(result):
    return result is not None


# (module, attribute, span name, attribute function) of the kept spans.
_SPANS = (
    ("tts", "closure", "tts.closure", _closure_attrs),
    ("verify", "closure", "tts.closure", _closure_attrs),
    ("tp", "tp_run", "tp.tp_run", _tp_run_attrs),
    ("verify", "tp_run", "tp.tp_run", _tp_run_attrs),
    ("tp", "tp_step", "tp.tp_step", _tp_step_attrs),
    ("compilers", "compile_machine", "compilers.compile_machine", None),
    ("verify", "compile_machine", "compilers.compile_machine", None),
    ("verify", "enumerate_accepted", "regmach.enumerate_accepted", None),
    ("verify", "run_verify", "verify.run_verify", None),
)

# (owner, attribute, name, outcome function) of the aggregated calls; owner
# None means the Multiset class.
_CALLS = (
    ("tts", "apply_mate", "rules.apply_mate", _hit),
    ("tp", "apply_mate", "rules.apply_mate", _hit),
    ("tts", "apply_drip1", "rules.apply_drip1", _hit),
    ("tp", "apply_drip1", "rules.apply_drip1", _hit),
    ("tts", "apply_drip", "rules.apply_drip", len),
    ("tp", "apply_drip", "rules.apply_drip", len),
    (None, "contains", "multiset.contains", None),
    (None, "minus", "multiset.minus", None),
    (None, "__add__", "multiset.add", None),
    (None, "render", "multiset.render", None),
    (None, "splits", "multiset.splits", len),
)


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket a pass."""

    def __init__(self, md):
        self.md = md
        self.spans: list[dict] = []
        # (parent span id, name) -> [calls, total_s, self_s, outcomes]
        self.calls: dict[tuple, list] = {}
        self.run_id = None
        self._frames = [[0.0]]   # time covered by wrapped children, per open call
        self._open = [None]      # ids of the open kept spans; [0] is the pass
        self._pass: dict = {}
        self._next_id = 0
        self._saved: list[tuple] = []
        self._origin = time.perf_counter()

    def install(self, run_id: str):
        """Wrap every traced function; calls until `uninstall` form one pass."""
        self.run_id = run_id
        self._pass = {"id": self._next_id, "name": "bench.pass", "parent": None,
                      "run": run_id, "start": time.perf_counter() - self._origin}
        self._next_id += 1
        self._open[0] = self._pass["id"]
        self._frames[0][0] = 0.0
        for module, attr, name, attrs in _SPANS:
            self._patch(getattr(self.md, module), attr, self._span(name, attrs))
        for module, attr, name, outcome in _CALLS:
            owner = self.md.Multiset if module is None else getattr(self.md, module)
            self._patch(owner, attr, self._call(name, outcome))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        record = self._pass
        record["end"] = time.perf_counter() - self._origin
        record["self_s"] = record["end"] - record["start"] - self._frames[0][0]
        self.spans.append(record)

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, name, attrs):
        frames, opened, clock = self._frames, self._open, time.perf_counter

        def make(fn):
            def span(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                parent = opened[-1]
                frame = [0.0]
                frames.append(frame)
                opened.append(sid)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    frames.pop()
                    opened.pop()
                record = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                          "start": start - self._origin, "end": end - self._origin,
                          "self_s": end - start - frame[0]}
                if attrs is not None:
                    record.update(attrs(args, result))
                frames[-1][0] += clock() - start
                self.spans.append(record)
                return result
            return span
        return make

    def _call(self, name, outcome):
        frames, opened, calls, clock = self._frames, self._open, self.calls, time.perf_counter

        def make(fn):
            def call(*args):
                frame = [0.0]
                frames.append(frame)
                start = clock()
                try:
                    result = fn(*args)
                finally:
                    elapsed = clock() - start
                    frames.pop()
                frames[-1][0] += elapsed
                key = (opened[-1], name)
                agg = calls.get(key)
                if agg is None:
                    agg = calls[key] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if outcome is not None:
                    agg[3] += outcome(result)
                return result
            return call
        return make

    # -- per-layer metrics ----------------------------------------------------

    def pass_metrics(self, run_id: str) -> dict:
        """Per-layer metrics of one pass, from the spans tagged with run_id."""
        spans = [s for s in self.spans if s["run"] == run_id]
        by_id = {s["id"]: s for s in spans}
        calls: dict[str, list] = {}
        closure_apply_calls = 0
        for (parent, name), (n, _total, self_s, outcomes) in self.calls.items():
            if parent not in by_id:
                continue
            acc = calls.setdefault(name, [0, 0.0, 0])
            acc[0] += n
            acc[1] += self_s
            acc[2] += outcomes
            if name.startswith("rules.") and by_id[parent]["name"] == "tts.closure":
                closure_apply_calls += n

        def kept(name):
            return [s for s in spans if s["name"] == name]

        def self_time(name):
            return sum((s["self_s"] for s in kept(name)), 0.0)

        out = {}
        closures = kept("tts.closure")
        population = sum(s["population"] for s in closures)
        out["tts.closure.self_s"] = self_time("tts.closure")
        out["tts.closure.population"] = population
        out["tts.closure.iterations"] = sum(s["iterations"] for s in closures)
        out["tts.closure.yield"] = population / closure_apply_calls if closure_apply_calls else 0.0
        for rule in ("apply_mate", "apply_drip1", "apply_drip"):
            n, self_s, outcomes = calls.get(f"rules.{rule}", (0, 0.0, 0))
            out[f"rules.{rule}.calls"] = n
            out[f"rules.{rule}.self_s"] = self_s
            if rule == "apply_drip":
                out["rules.apply_drip.outcomes"] = outcomes
            else:
                out[f"rules.{rule}.hit_ratio"] = outcomes / n if n else 0.0
        for op in ("contains", "minus", "add", "render", "splits"):
            n, self_s, outcomes = calls.get(f"multiset.{op}", (0, 0.0, 0))
            out[f"multiset.{op}.calls"] = n
            out[f"multiset.{op}.self_s"] = self_s
            if op == "splits":
                out["multiset.splits.pairs"] = outcomes
        steps = kept("tp.tp_step")
        out["tp.tp_step.calls"] = len(steps)
        out["tp.tp_step.self_s"] = self_time("tp.tp_step")
        out["tp.tp_step.admitted"] = sum(s["admitted"] for s in steps)
        out["tp.tp_step.consumed"] = sum(s["consumed"] for s in steps)
        for name in ("compilers.compile_machine", "regmach.enumerate_accepted"):
            out[f"{name}.calls"] = len(kept(name))
            out[f"{name}.self_s"] = self_time(name)
        verifies = kept("verify.run_verify")
        base = stability = 0.0
        for v in verifies:
            runs = [s for s in spans if s["parent"] == v["id"]
                    and s["name"] in ("tts.closure", "tp.tp_run")]
            if runs:
                base += runs[0]["end"] - runs[0]["start"]
            if len(runs) > 1:
                stability += runs[1]["end"] - runs[1]["start"]
        verify_total = sum(v["end"] - v["start"] for v in verifies)
        out["verify.run_verify.self_s"] = self_time("verify.run_verify")
        out["verify.base_s"] = base
        out["verify.stability_s"] = stability
        out["verify.stability_share"] = stability / verify_total if verify_total else 0.0
        return out

    def dump(self) -> dict:
        """Spans and aggregated calls, for writing out once the run ends."""
        return {
            "spans": self.spans,
            "calls": [{"parent": parent, "name": name, "calls": n, "total_s": total,
                       "self_s": self_s, "outcomes": outcomes}
                      for (parent, name), (n, total, self_s, outcomes) in self.calls.items()],
        }


def combine_passes(passes: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over the traced passes; counts must repeat exactly.

    Returns (metrics, problems); a count that differs between passes is a
    problem.  Times and shares of time take the median.
    """
    metrics, problems = {}, []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name.endswith(("_s", "_share")):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    return metrics, problems
