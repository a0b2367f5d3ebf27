"""Run one matedrip benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  matedrip is imported from the checkout's
`src/`; nothing is installed.  Each run starts its processes one after
another and never two at once: with `--trace 0`, set-up processes before
and after one measuring process; with `--trace 1`, one tracing process.  The
seed reaches them only as PYTHONHASHSEED, so the inputs are the same for
every seed and only the interpreter's hash order (and with it the engines'
internal visit order) changes.

The human-readable report goes to stdout first; the last line is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  The
metrics are the `end_to_end` ones of BENCHMARK.json with `--trace 0` and the
`per_layer` ones with `--trace 1`.  Results (and with `--trace 1`, the
spans) are also written to bench/out/<workload>-seed<n>-{e2e,trace}.json.  The exit code is 0 only when every
output matched its pinned value; 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 25   # set-up is timed in this many fresh processes
DEADLINE_S = 170.0   # the whole run, child processes included


class RunError(Exception):
    """The run could not be made; no result is printed."""


def tail(samples: list[float]):
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, or None below eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return round(100 * (idx + 1) / len(ordered), 1), ordered[idx]


def summary(samples: list[float]) -> dict:
    out = {"median": statistics.median(samples), "n": len(samples)}
    t = tail(samples)
    if t is not None:
        out["tail_percentile"], out["tail"] = t
    return out


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "seed": seed}


def run_child(args: list[str], seed: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{args[0]} process did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args[0]} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(child: dict, setups: list[dict]) -> tuple[dict, dict, dict]:
    """(metric values, summaries, raw samples) of a measuring run.

    Times are at reference speed (see gauge.py); the summaries and samples
    keep the times as measured too, under `measured_*`.
    """
    walls = [w * s for w, s in zip(child["wall_s"], child["scale"])]
    if not walls:   # the run failed before timing anything
        return {}, {}, {}
    setup_ref = [s["setup_ref_s"] for s in setups]
    setup_raw = [s["setup_s"] for s in setups]
    values = {
        "setup_s": statistics.median(setup_ref),
        "wall_s": statistics.median(walls),
        "vesicles_per_s": statistics.median(v / w for v, w in zip(child["vesicles"], walls)),
        "verdicts_per_s": statistics.median(d / w for d, w in zip(child["verdicts"], walls)),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    samples = {"setup_s": setup_ref, "wall_s": walls,
               "measured_setup_s": setup_raw, "measured_wall_s": child["wall_s"]}
    return values, {k: summary(v) for k, v in samples.items()}, samples


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny bounds, for the self-check")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="pinned outputs to check against")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "matedrip", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "machines")):
        print(f"error: {ROOT} is not a matedrip checkout (src/matedrip and machines/ needed)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    child_args = [args.workload, args.scale, str(args.seconds), args.expected]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    try:
        if args.trace:
            child = run_child(["trace", *child_args], args.seed, deadline)
            specs = bench["per_layer"]
            values, summaries = child["per_layer"], {}
            samples = {k: child[k] for k in ("untraced_wall_s", "traced_wall_s")}
            spans = {k: child[k] for k in ("per_pass", "spans", "calls")}
        else:
            # set-up samples are taken before and after the measuring process,
            # so they span the run's time like the operations do
            def setup_samples(n):
                return [run_child(["setup", *child_args], args.seed, deadline)
                        for _ in range(n)]
            setups = setup_samples(SETUP_SAMPLES // 2)
            child = run_child(["measure", *child_args], args.seed, deadline)
            setups += setup_samples(SETUP_SAMPLES - 1 - len(setups)) + [child]
            specs = bench["end_to_end"]
            values, summaries, samples = end_to_end(child, setups)
            spans = {}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in values}
    attempted, failed = child["attempted"], child["failed"]
    env = environment(args.seed)
    result_file = stem + ("-trace.json" if args.trace else "-e2e.json")
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "workload": args.workload, "scale": args.scale,
                   "metrics": metrics, "summaries": summaries, "samples": samples,
                   "attempted": attempted, "failed": failed, "problems": child["problems"],
                   "output_sha256": child["output_sha256"], "output": child["output"],
                   **spans}, fh)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    for name, m in metrics.items():
        line = f"  {name:36s} {m['value']:.6g} {m['unit']}"
        for label, s in (("", summaries.get(name)), ("as measured: ", summaries.get("measured_" + name))):
            if s:
                line += f"  ({label}median {s['median']:.6g} of {s['n']}"
                line += f"; p{s['tail_percentile']} {s['tail']:.6g})" if "tail" in s \
                    else "; fewer than 11 samples, no tail percentile)"
        print(line)
    print(f"  {'error_rate':36s} {failed / attempted if attempted else 1.0:.6g}"
          f"  ({failed} failed of {attempted} attempted)")
    print(f"  {'output_sha256':36s} {child['output_sha256']}")
    if args.trace:
        print(f"  traced passes {len(child['traced_wall_s'])}")
    print(f"  results in {result_file}")
    for problem in child["problems"]:
        print(f"  MISMATCH {problem}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
