"""Exploration outputs pinned by digest: a change to the engines that is
meant to leave their behaviour alone must leave every digest here alone.

Each digest covers one (fixture, construction, fidelity).  For a test tube
construction it covers, at each of `BOUNDS`, the closure's sorted tube
contents, `pruned`, `iterations`, population, results and `is_fixpoint`;
for thm4 a 12-step `tp_run`'s results and trace at the same bounds.  The
bounds cut by size, by population and by iterations."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matedrip import (
    Bounds,
    closure,
    compile_machine,
    is_fixpoint,
    load_machine,
    results_of_state,
    tp_run,
)
from matedrip.compilers import CompileOptions

from conftest import machine_path

BOUNDS = (Bounds(8, 3000, 100), Bounds(6, 150, 100), Bounds(10, 20000, 3))


def _renders(vesicles):
    return sorted(v.render() for v in vesicles)


def _records(system, construction):
    for bounds in BOUNDS:
        if construction == "thm4":
            results, trace = tp_run(system, 12, bounds)
            yield repr((_renders(results), trace.populations, trace.steps, trace.pruned))
            continue
        state = closure(system, bounds)
        results = _renders(results_of_state(system, state))
        yield repr((results, state.pruned, state.iterations, state.population,
                    [_renders(tube) for tube in state.contents],
                    is_fixpoint(system, state, bounds)))


def output_digest(name, construction, fidelity):
    system = compile_machine(load_machine(machine_path(f"{name}.rm")), construction,
                             CompileOptions(fidelity=fidelity))
    digest = hashlib.sha256()
    for record in _records(system, construction):
        digest.update(record.encode() + b"\n")
    return digest.hexdigest()


PINNED_OUTPUTS = {
    ("eq", "thm1", "guarded"):
        "9a66c93c1c3168e81ab20d12bfc2cfaf98256ed2260f3d5975e3d705628c85e0",
    ("eq", "thm1", "faithful"):
        "657f84784d9da05823986ff2d9262a0f7e34bf22d5a27f111cd2902cb0644cca",
    ("eq", "cor2", "guarded"):
        "82f7e27b64b2e94f4eea297a922ee43d4ba79ffa9b6a3bb3f4aa3b13f36fb583",
    ("eq", "cor2", "faithful"):
        "3364ffc3cd6c49ffe68189bdb16b29c73d8c2117ddbd1c2591e9436d26542016",
    ("eq", "cor3", "guarded"):
        "a33843d7b7c1631af9770d315cd9b5b6d02f3406dabad9b9b40af8b72b02c158",
    ("eq", "cor3", "faithful"):
        "200103485eb3062c03a2f3f00319d2df1001397b58df894333c692f030cf3f28",
    ("eq", "thm4", "guarded"):
        "a28c99d7406281b9a93fccc5cee1ac769d0be121ce81accc70200eb21b250d8d",
    ("eq", "thm4", "faithful"):
        "11d961d18cb7aaef9489600a82064ff3a2b059905db87bd60bf222b180a24907",
    ("even", "thm1", "guarded"):
        "c642c287208f3ce37f9d15d5ad942777a5eb6e7d970a59756a5b6ecf1111e7f8",
    ("even", "thm1", "faithful"):
        "36883eb8b9521b8dd9144c84ff173875bb5c72174765f5bb1cfe9a1d3ff40c13",
    ("even", "cor2", "guarded"):
        "0c7a46d6de0647b2c1a068bede802d3709ad7293b4471e6e6ab6874d75549aa0",
    ("even", "cor2", "faithful"):
        "90edc78c3da72c93aee1a3ede451ad5c5888c5e5c5f81eff71c6def15098b43d",
    ("even", "cor3", "guarded"):
        "5236153725ed86ce1d9cdb39e24cfc864934728e8d672019da5a85e3cc1a2def",
    ("even", "cor3", "faithful"):
        "3791c2ff84850fce9df34a29b814d2fe3f4a3e7e7f8f7883eb0d28138ded7b9f",
    ("even", "thm4", "guarded"):
        "4a22af21be587440a7760da22fcd2fadb91649b88ac1698cdae633efeec8a354",
    ("even", "thm4", "faithful"):
        "4f95c1bdb2c7fbcc7628cfe1e9d7850568469e580c09612f08f1f233ea9df90d",
    ("mod3", "thm1", "guarded"):
        "e9bf9e9f7e1a2b5166d89e024392954cbd5698eb36e72a44de57f56558723da8",
    ("mod3", "thm1", "faithful"):
        "cdeaa9c154fa262cd4f8a6841832edb097e2f22642f23c578746164e078e1820",
    ("mod3", "cor2", "guarded"):
        "7a79b351260693e44990bd3bc8b6d97a484601de53e29dd57ffe4085d29f17b0",
    ("mod3", "cor2", "faithful"):
        "4254ad51a54d1742a248e6c72f6e44c1bd2ce70d1059e1dc3c1f0676d7bc0103",
    ("mod3", "cor3", "guarded"):
        "91888bb318c88d2d94a62fc472e5cd7b423d49b8bb7e41df38e842a0655db464",
    ("mod3", "cor3", "faithful"):
        "6ec284c560df11147b7925e597e6ac08a9c0e2a37f5804e8c582facababafa53",
    ("mod3", "thm4", "guarded"):
        "76f4cea6c097224b67d23873a3c4392f93a88962d38244ce3f8b54406a78d7b0",
    ("mod3", "thm4", "faithful"):
        "a1218fe14bccf2d4126f375b2009495d8cbbbb03fa30a7120075ca90b67e0581",
    ("trap", "thm1", "guarded"):
        "b22665c122ea302224d7b5ee1cd98c8b27bce613a8a28895bd96b02f8febbe8c",
    ("trap", "thm1", "faithful"):
        "e1bca5c1aeb7f43efe71c684a5e8f69090fad98884e6c226527e812084ff8a03",
    ("trap", "cor2", "guarded"):
        "a4382f7da25f8c24ddb6c700693251fee6e9de9ae232b98284f31386d21ebcab",
    ("trap", "cor2", "faithful"):
        "7d123518194f23ef614fcb7093736df39645370ff70d49944ba6d44d17d143fa",
    ("trap", "cor3", "guarded"):
        "00fe5265c51349252fbb299677299e4ea6730877fef7a014a48e50bb845085fd",
    ("trap", "cor3", "faithful"):
        "c2e5fc0d09fd3d588bfc6e8010328c18bdd76b15ecc0774c58e38f987c754d47",
    ("trap", "thm4", "guarded"):
        "2019a596f30a540f53d1605e8fcb4d778f4832484c17451a5efec7f5fdeeec2a",
    ("trap", "thm4", "faithful"):
        "c8970b9cab2b1c54f243c7b78847dcca3384171b4284699d34438dfb0a24080c",
}


@pytest.mark.parametrize("name,construction,fidelity", sorted(PINNED_OUTPUTS))
def test_outputs_pinned(name, construction, fidelity):
    assert output_digest(name, construction, fidelity) == PINNED_OUTPUTS[name, construction, fidelity]


def test_outputs_do_not_depend_on_the_hash_seed():
    # str hashing follows PYTHONHASHSEED, and with it the iteration order of
    # every set the engines walk; each digest must come out the same
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    script = ("from test_outputs_pinned import PINNED_OUTPUTS, output_digest\n"
              "for key in sorted(PINNED_OUTPUTS):\n"
              "    print(*key, output_digest(*key))\n")
    runs = [subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            for seed in ("0", "3")]  # side by side, as each takes a couple of seconds
    outputs = [run.communicate(timeout=120)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0].count("\n") == len(PINNED_OUTPUTS)
    assert outputs[0] == outputs[1]
