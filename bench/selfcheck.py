"""Fast self-check of the benchmark, at tiny bounds (about a minute).

    python3 bench/selfcheck.py

Runs every workload once untraced under two seeds and once traced, and
checks that each run passes, that it emits exactly the metrics BENCHMARK.json
names, and that the outputs are byte-identical across seeds and between the
traced and the untraced run.  Then checks that a corrupted pinned digest is
reported as a failure, and that a directory holding only the benchmark's own
files makes the command fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def bench(root: str, workload: str, seed: int, trace: int, *extra: str):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result, proc


def result_file(workload: str, seed: int, kind: str) -> dict:
    with open(os.path.join(OUT, f"{workload}-seed{seed}-{kind}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    failures = []

    def expect(ok: bool, message: str):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for w in (w["name"] for w in spec["workloads"]):
        digests = {}
        for seed, trace in ((1, 0), (2, 0), (3, 1)):
            code, result, proc = bench(ROOT, w, seed, trace)
            run = f"{w} seed {seed} trace {trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{run} passes" + ("" if code == 0 else f": {proc.stderr.strip()[-500:]}"))
            if result is None:
                continue
            emitted = list(result["metrics"])
            expect(emitted == names[trace], f"{run} emits exactly the BENCHMARK.json metrics"
                   + ("" if emitted == names[trace] else
                      f" (not listed: {sorted(set(emitted) - set(names[trace]))},"
                      f" missing: {sorted(set(names[trace]) - set(emitted))})"))
            kind = "trace" if trace else "e2e"
            digests[(seed, trace)] = result_file(w, seed, kind)["output_sha256"]
        expect(len(set(digests.values())) == 1,
               f"{w} output identical across seeds and tracing: {sorted(set(digests.values()))}")

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    digest = pinned["tiny"]["tts-mate-faithful"]["tube_sha256"][0]
    pinned["tiny"]["tts-mate-faithful"]["tube_sha256"][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    os.makedirs(OUT, exist_ok=True)
    corrupt = os.path.join(OUT, "expected-corrupt.json")
    with open(corrupt, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh)
    code, result, _ = bench(ROOT, "tts-mate-faithful", 1, 0, "--expected", corrupt)
    expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
           "a corrupted pinned digest is reported as a failure")

    stripped = os.path.join(OUT, "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(stripped, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    code, result, _ = bench(stripped, "tts-mate-faithful", 1, 0)
    shutil.rmtree(stripped)
    expect(code != 0 and result is None,
           "with only the benchmark's own files, the command fails without a result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
