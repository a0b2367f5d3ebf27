import hashlib
import itertools
import random

import pytest

from matedrip import (
    Add,
    DripRule,
    Halt,
    MateRule,
    Multiset,
    RegisterMachine,
    Sub,
    compile_cor2,
    compile_cor3,
    compile_machine,
    compile_thm1,
    compile_thm4,
    load_machine,
    metrics,
    parse_machine,
    render_tp,
    render_tts,
    validate_tp,
    validate_tts,
)
from matedrip.compilers import CompileError, CompileOptions

from conftest import machine_path

FAITHFUL = CompileOptions(fidelity="faithful")


def ms(text):
    return Multiset.parse(text)


def rand_machine(rng: random.Random) -> RegisterMachine:
    registers = rng.randint(1, 3)
    inputs = rng.randint(1, registers)
    count = rng.randint(2, 8)
    labels = [f"q{i}" for i in range(count)] + ["stop"]
    instructions = {}
    for label in labels[:-1]:
        if rng.random() < 0.5:
            instructions[label] = Add(rng.randint(1, registers), rng.choice(labels))
        else:
            instructions[label] = Sub(rng.randint(1, registers),
                                      rng.choice(labels), rng.choice(labels))
    instructions["stop"] = Halt()
    machine = RegisterMachine(registers, inputs, labels[0], instructions)
    assert machine.validate() == []
    return machine


def small_machines(registers: int, instructions: int = 1):
    """Every machine with one input, `registers` registers, the labels q0 to
    q<instructions - 1> each holding an ADD or SUB on any register with any
    targets, and `stop` holding HALT: 6 machines with one register and one
    instruction, 12 with two registers and one."""
    labels = [f"q{i}" for i in range(instructions)] + ["stop"]
    choices = ([Add(r, goto) for r in range(1, registers + 1) for goto in labels]
               + [Sub(r, goto, zero) for r in range(1, registers + 1)
                  for goto in labels for zero in labels])
    for program in itertools.product(choices, repeat=instructions):
        instructions_of = dict(zip(labels, program), stop=Halt())
        machine = RegisterMachine(registers, 1, "q0", instructions_of)
        assert machine.validate() == []
        yield machine


def all_fixture_machines(even, mod3, eq, trap):
    rng = random.Random(3001)
    return [even, mod3, eq, trap] + [rand_machine(rng) for _ in range(4)]


# -- metrics bounds (exact) ---------------------------------------------------


def test_thm1_metrics_bounds(even, mod3, eq, trap):
    for machine in all_fixture_machines(even, mod3, eq, trap):
        for opts in (CompileOptions(), FAITHFUL, CompileOptions(normalize=False)):
            system = compile_thm1(machine, opts)
            assert validate_tts(system) == []
            got = metrics(system)
            assert got.compartments == 3
            assert got.max_axiom_weight <= 3
            assert got.max_mate_weight <= 5
            assert got.drip_rules == 0 and got.drip1_rules == 0


def test_cor2_metrics_bounds(even, mod3, eq, trap):
    for machine in all_fixture_machines(even, mod3, eq, trap):
        for opts in (CompileOptions(), FAITHFUL):
            system = compile_cor2(machine, opts)
            assert validate_tts(system) == []
            got = metrics(system)
            assert got.compartments == 3
            assert got.max_axiom_weight == 1
            assert got.max_mate_weight <= 5
            assert got.max_drip_weight <= 4
            assert got.drip1_rules == 0


def test_cor3_metrics_bounds(even, mod3, eq, trap):
    for machine in all_fixture_machines(even, mod3, eq, trap):
        for opts in (CompileOptions(), FAITHFUL):
            system = compile_cor3(machine, opts)
            assert validate_tts(system) == []
            got = metrics(system)
            assert got.compartments == 3
            assert got.max_axiom_weight == 1
            assert got.max_drip1_weight <= 4
            assert got.mate_rules == 0 and got.drip_rules == 0


def test_thm4_metrics_bounds(even, mod3, eq, trap):
    for machine in all_fixture_machines(even, mod3, eq, trap):
        for opts in (CompileOptions(), FAITHFUL):
            system = compile_thm4(machine, opts)
            problems, warnings = validate_tp(system)
            assert problems == [] and warnings == []
            got = metrics(system)
            assert got.compartments == 5
            assert got.max_axiom_weight <= 3
            assert got.max_mate_weight <= 5
            assert got.max_drip_weight <= 5
            assert got.drip1_rules == 0


def test_thm1_faithful_metrics_exact(even):
    got = metrics(compile_thm1(even, FAITHFUL))
    assert (got.compartments, got.max_axiom_weight, got.max_mate_weight) == (3, 3, 5)


# -- construction content ----------------------------------------------------


def test_thm1_faithful_axioms(even):
    system = compile_thm1(even, FAITHFUL)
    tube1 = system.axioms[0]
    assert {ms("@X"), ms("@Z l0"), ms("@F"), ms("@Y a1 b1")} <= tube1
    # ADD ld and each SUB contribute their axioms
    assert ms("@A.ld b1 ld") in tube1
    assert ms("@A.l0 l1") in tube1 and ms("@Ap.l0") in tube1
    # the zero branch confirmations live in tube 2
    assert ms("@App.l0 lh") in system.axioms[1]
    assert system.axioms[2] == frozenset()
    assert system.outputs == {3}


def test_thm1_guarded_swaps_loading_symbol(even):
    system = compile_thm1(even)
    tube1 = system.axioms[0]
    assert ms("@XH") in tube1 and ms("@X") not in tube1
    rules = system.rules[0]
    guard = MateRule(ms("."), ms("@XH"), ms("@Z"), ms("l0"), ms("@X"))
    assert guard in rules
    assert guard.weight == 4
    load = MateRule(ms("@XH"), ms("."), ms("@Y"), ms("."), ms("."))
    assert load in rules


def test_thm1_filters(even):
    system = compile_thm1(even)
    by_edge = {(i, j): f for i, f, j in system.filters}
    assert set(by_edge) == {(1, 2), (2, 1), (1, 3)}
    # output filter only passes terminal symbols
    assert by_edge[(1, 3)].branches[0].allowed == {"a1"}
    # appearance branch for register 1 excludes b1 but allows the guess markers
    branch = by_edge[(1, 2)].branches[0].allowed
    assert "b1" not in branch and "@X" in branch and "a1" in branch
    assert any(name.startswith("@Ap.") for name in branch)
    # return filter blocks guess and confirmation markers
    back = by_edge[(2, 1)].branches[0].allowed
    assert not any(name.startswith(("@Ap.", "@App.")) for name in back)


def test_cor2_generates_axioms_from_seed(even):
    guarded = compile_cor2(even)
    assert guarded.axioms[0] == {ms("@g")} and guarded.axioms[1] == {ms("@g")}
    rules1 = guarded.rules[0]
    assert DripRule(ms("."), ms("@g"), ms("."), ms("@XH"), ms(".")) in rules1
    assert DripRule(ms("."), ms("@g"), ms("."), ms("@g"), ms(".")) in rules1
    faithful = compile_cor2(even, FAITHFUL)
    assert DripRule(ms("."), ms("@g"), ms("."), ms("@X"), ms(".")) in faithful.rules[0]


def test_cor3_translation(even):
    system = compile_cor3(even, FAITHFUL)
    rules1 = system.rules[0]
    # ADD ld: (X|ld, A.ld|ld b1;) with axiom A.ld ld b1 becomes DRIP1 (X|ld|; ld b1,)
    add1 = DripRule(ms("@X"), ms("ld"), ms("."), ms("b1 ld"), ms("."), one_sided=True)
    assert add1 in rules1
    assert add1.weight == 4
    # the output mate becomes the two-symbol cut (@h is the draining halt)
    out1 = DripRule(ms("."), ms("@X @h"), ms("."), ms("."), ms("."), one_sided=True)
    assert out1 in rules1
    # loading builds the axiom remainder into the rule
    load1 = DripRule(ms("@X"), ms("."), ms("."), ms("a1 b1"), ms("."), one_sided=True)
    assert load1 in rules1
    assert all(isinstance(r, DripRule) and r.one_sided for r in rules1)
    assert all(isinstance(r, DripRule) and r.one_sided for r in system.rules[1])


def test_thm4_shape(eq):
    system = compile_thm4(eq)
    assert system.cells == 5 and system.output_cell == 5
    assert system.axioms[1] == frozenset() and system.axioms[4] == frozenset()
    # checker cycle vesicles for both tested registers
    assert ms("@KE.1 l2") in system.axioms[2]
    assert ms("@KD.1 @KF.1") in system.axioms[2]
    assert ms("@KA.1") in system.axioms[3] and ms("@KA.2") in system.axioms[3]
    # the kill rule erases @X and ships the vesicle to cell 4
    kills = [tp for tp in system.rules
             if isinstance(tp.rule, MateRule) and tp.source == 3 and tp.target == 4
             and tp.rule.b == ms("@X")]
    assert len(kills) == 2
    # output rule erases halt label and @X into cell 5
    outs = [tp for tp in system.rules if tp.target == 5]
    assert len(outs) == 1 and outs[0].source == 1
    assert outs[0].rule.a == ms("@X @h")


def test_thousand_register_thm4_holds_each_rule_once(even, mod3, eq, trap):
    # in faithful mode {@X} is a species, whose return rule is the @X one
    text = "REGISTERS 1000\nINPUTS 1\nSTART q0\nq0 ADD 1000 q1\nq1 SUB 1000 q1 stop\nstop HALT\n"
    machine = parse_machine(text)
    assert machine.registers == 1000
    system = compile_thm4(machine, FAITHFUL)
    assert len(set(system.rules)) == len(system.rules) > 14000
    for machine in all_fixture_machines(even, mod3, eq, trap):
        for opts in (CompileOptions(), FAITHFUL):
            rules = compile_thm4(machine, opts).rules
            assert len(set(rules)) == len(rules)


def test_compile_dispatcher(even):
    assert metrics(compile_machine(even, "thm1")).kind == "TTS"
    assert metrics(compile_machine(even, "thm4")).kind == "TP"
    with pytest.raises(CompileError):
        compile_machine(even, "thm9")


def test_compile_determinism(even, mod3, eq):
    for machine in (even, mod3, eq):
        for construction in ("thm1", "cor2", "cor3"):
            a = render_tts(compile_machine(machine, construction))
            b = render_tts(compile_machine(machine, construction))
            assert a == b
        assert render_tp(compile_thm4(machine)) == render_tp(compile_thm4(machine))


def test_compile_rejects_bad_labels():
    colliding = RegisterMachine(1, 1, "a1", {"a1": Sub(1, "a1", "stop"), "stop": Halt()})
    with pytest.raises(CompileError, match="collides"):
        compile_thm1(colliding)
    reserved = RegisterMachine(1, 1, "@q", {"@q": Sub(1, "@q", "stop"), "stop": Halt()})
    with pytest.raises(CompileError, match="reserved"):
        compile_thm1(reserved)
    arity0 = RegisterMachine(1, 0, "l0", {"l0": Halt()})
    with pytest.raises(CompileError, match="arity"):
        compile_thm1(arity0)


def test_compile_rejects_invalid_machine():
    broken = RegisterMachine(1, 1, "l0", {"l0": Add(1, "nowhere"), "lh": Halt()})
    with pytest.raises(CompileError, match="validate"):
        compile_thm1(broken)


def test_faithful_guarded_agreement_without_drain(even):
    """M_even clears its registers natively and never loads after a zero
    test it depends on, so the literal transcription agrees with the guarded
    one when the draining tail is left out.  (With the tail, faithful mode
    re-loads halted vesicles and the drain absorbs the stray register
    symbols, so every count becomes reachable.)"""
    from matedrip.tts import Bounds
    from matedrip.verify import run_verify

    expected = {(0,), (2,), (4,)}
    for construction in ("thm1", "thm4"):
        results = {}
        for fidelity in ("faithful", "guarded"):
            report = run_verify(
                even, "even.rm", construction, bound=4, fuel=200,
                bounds=Bounds(10, 60000, 400), max_steps=40,
                opts=CompileOptions(fidelity=fidelity, normalize=False))
            assert report.matched
            results[fidelity] = report.system
        assert results["faithful"] == results["guarded"] == expected


def test_empty_metrics():
    from matedrip import TestTubeSystem

    empty = TestTubeSystem(frozenset(), frozenset(), 1, (frozenset(),), ((),), (), frozenset())
    got = metrics(empty)
    assert (got.max_axiom_weight, got.max_mate_weight, got.max_drip_weight,
            got.max_drip1_weight) == (0, 0, 0, 0)


# -- compiled text pinned byte for byte ----------------------------------------

# sha256 of the rendered system, keyed by (machine, construction, fidelity,
# normalize); recorded before the four constructions shared one skeleton.
PINNED_DIGESTS = {
    ("eq", "thm1", "guarded", True):
        "e577d5f04e83e3910cc9bb8aeca1c1daa1cf9f3b591e858a799b857af81f48be",
    ("eq", "thm1", "guarded", False):
        "334954f38966c4215c854e81926672a46b4151fb5bbb0dc53ada29d68be6edfe",
    ("eq", "thm1", "faithful", True):
        "55d0ca55f75ec605cda0eab14800424570e498f035d92ecf7abd6b493bacc976",
    ("eq", "thm1", "faithful", False):
        "7a47fdc0956a57e8e466ca6047148b1d2e4a2ec7e50305bcceb53b86ad9b8fbb",
    ("eq", "cor2", "guarded", True):
        "e383ce01f149795a567d76b1f2fd3e39c1ad72092c83d88a9e0fa8f39b77fdc3",
    ("eq", "cor2", "guarded", False):
        "0d3ee868026d4dbd00b3eaef6f1db15ce00a25665c8294b8302f672e9c9f8dde",
    ("eq", "cor2", "faithful", True):
        "ed5c758affe947e7de565915c6453e4114264c0dc0b3f14132829de0644b094a",
    ("eq", "cor2", "faithful", False):
        "e00ad27eed7fe13c412ea6bcd0d1b8a7753089963da6b31e5ee9ee8213f3e1f0",
    ("eq", "cor3", "guarded", True):
        "6163c5cb124aa8a14ff38eddd440e28f6590208fd93b3c96c7ac30864f1d6660",
    ("eq", "cor3", "guarded", False):
        "c4b38f635fb923709d7fdc06c643949f8020bf1693dc1f85d359502d798d7966",
    ("eq", "cor3", "faithful", True):
        "c950db316bca368c1b2d57079164e6f9854043591cc7f8cd024bdbf62d5e36e5",
    ("eq", "cor3", "faithful", False):
        "2056f4e6fb297308b67259b4d703019e7f606525ed3a622514ecf8729a0acb76",
    ("eq", "thm4", "guarded", True):
        "45bdcb8e9779b136d26cb159d474eec1d44b71950ab037cd884a862ed708b9e2",
    ("eq", "thm4", "guarded", False):
        "32ad3984b5e8eed6924ed52524518f800d0eb1f9f7ed5a5476d513e2e3ae3da9",
    ("eq", "thm4", "faithful", True):
        "256187063d4f973a6b4ef7f00ee6d833685aff43a33f6a3029664ed1b5d814c3",
    ("eq", "thm4", "faithful", False):
        "6e3755b02bf62a96c5be00f04d6af5073ee7f1784c42ec7d5dcd593fded9187d",
    ("even", "thm1", "guarded", True):
        "7aa97438bc90ab130e2998f072c6a28acd0fb63dae7e67960f6d3f8fc9252612",
    ("even", "thm1", "guarded", False):
        "848441d958f806f62eb9f4ad7427c179591383e504221f256462a0900f920bd6",
    ("even", "thm1", "faithful", True):
        "7510f03a39761da448b2e220231d161acdfda98ad4f5b9d03845af79cd9a4bab",
    ("even", "thm1", "faithful", False):
        "3e085c09001d90aede310e2dea32860914b9e45c68ec584de90b1e69cbb200cd",
    ("even", "cor2", "guarded", True):
        "1f28b87a04f6ee3361a5f6edaa5808bea793cb63611a982fc13298b60fdc3974",
    ("even", "cor2", "guarded", False):
        "b46e4ec7ba3de9ad1c6081f72a64d36f8da90386a2fe75b8244f1d9a356b9887",
    ("even", "cor2", "faithful", True):
        "043fb080164168f0a4f317ebe21c4feef2e4beff615b376d8e5c6f2c464aa8ee",
    ("even", "cor2", "faithful", False):
        "63be2462efe6bf1194bcb0f88f9458986c37fb8ac5f26ec74722f7af54ee353a",
    ("even", "cor3", "guarded", True):
        "eb8edcabee80efe5eaa26ca8c63950f0a3b9476bd81066837744155404e719f7",
    ("even", "cor3", "guarded", False):
        "64c2ae33d97fa64bf2507e6e8647f5ef762258627eb5dd336cbc25208f45fc97",
    ("even", "cor3", "faithful", True):
        "6474d08ff3454cd51c5e600bd53469a3b1a4aa7a34894eaeca7a0782626ebe54",
    ("even", "cor3", "faithful", False):
        "7a5ba757da8a1e3fa98a9a46ebcfff20bd4eba215f92e06a1626e329a5eb1109",
    ("even", "thm4", "guarded", True):
        "e36d12b3f114b42137b79959b1158fddf840ef6db24c105885c0461b2414e5c6",
    ("even", "thm4", "guarded", False):
        "b38b7f05bac75fcb36a5251a638466d512ded46d14945510ab4e0419b59a77dd",
    ("even", "thm4", "faithful", True):
        "419251beeccbde3b7b1e6d9433fe7494da492e568f7848052bd9cae2a4ff5eb5",
    ("even", "thm4", "faithful", False):
        "207ba21d3eacb6f1e634566f4a358ad2f5d2a396f67edc2b47b6dcc66eb30554",
    ("mod3", "thm1", "guarded", True):
        "f0842d484a96cf37eaa92317cb48b2b05b2d3ae7d1e5104d325d1c87a5139d53",
    ("mod3", "thm1", "guarded", False):
        "6992cffa4dbfaa251bc445c14d965ee68b63ca98d85f56c28b56be522b05efec",
    ("mod3", "thm1", "faithful", True):
        "381d80e13e58e99ce61444e9e4b73d2e5e759e323f1db3dd33389a98cb487ed8",
    ("mod3", "thm1", "faithful", False):
        "83e37a917c7f8ff0302b97dcacaaf89655fc3132143ba59a1f0e993af91af6dd",
    ("mod3", "cor2", "guarded", True):
        "5c38c54ddcef6f8b5281755ae58696233f847a10ab1b31ac357d01d2b5748121",
    ("mod3", "cor2", "guarded", False):
        "cbfd29cb7f135318cf58fa46f9ab57033991853a9999fa75d41307d03d4eeed5",
    ("mod3", "cor2", "faithful", True):
        "85b88051f7ff0197a65b0cffea84aa1e95064819b59453ceed796db7c1be73da",
    ("mod3", "cor2", "faithful", False):
        "180699e20570be957f83c219f05ae8dc31ab9d7d8fed9608abfe45b91cf5649d",
    ("mod3", "cor3", "guarded", True):
        "e2264e4a88ca2ab7b792d410317e97cd807d54f492eb53a5b0066f720ab05ab7",
    ("mod3", "cor3", "guarded", False):
        "2ab4e661f168d5a005e2fddee8d8205dd25b1886f906a09c3f2c9e5e85ecc64a",
    ("mod3", "cor3", "faithful", True):
        "baa5ce5770c1bb5a2e8449b545eb6a4fe0bbe70b533e8ba2d4ad6e59d9f37543",
    ("mod3", "cor3", "faithful", False):
        "4ad2d145b81f7f708466d1c007fa851c8a65e0d5a389b46b9f7e6d7868d21afe",
    ("mod3", "thm4", "guarded", True):
        "26f8c373ab77e878437ac7ae7795bf371800baa8c63c302df8aacae8c249b621",
    ("mod3", "thm4", "guarded", False):
        "a9f24212fc0545dc5feb86c9dbcc9b5b4f0d88b4f94a781918a35be5b33a5230",
    ("mod3", "thm4", "faithful", True):
        "1b13b5cc771aea239aa6f42f813bfaa972bab2b7b0cc9c1039f792fd319d752a",
    ("mod3", "thm4", "faithful", False):
        "02d70871d2a57fe8ba0e768256456765bf3ff4a28e5d3e615025e246f242720b",
    ("trap", "thm1", "guarded", True):
        "ce3c684351023d4dd0b5fc29ddb3e1fa25c7dced362cf26cc8081a845e5be3eb",
    ("trap", "thm1", "guarded", False):
        "becab7c6394217a116d8f49c870baebeafc7fa2ef16bd5697577ff1cf5cdd6d5",
    ("trap", "thm1", "faithful", True):
        "3d863c62151155b160268179a97478ca0f1d0596967827dbfad99c4188522ef9",
    ("trap", "thm1", "faithful", False):
        "556741edb2d6e2df30f80201d90483946a7d92efe57acaacffe43c47a6474f4a",
    ("trap", "cor2", "guarded", True):
        "5b423f51a0fc96d7412315552b10ccc95b4e5f7694a2670b947cf02fd89574ec",
    ("trap", "cor2", "guarded", False):
        "ec8b4594dc96357c289009eeef69fd28a2945ca6726f4e5b9277052b1f8951e0",
    ("trap", "cor2", "faithful", True):
        "9c46a61bd7872b83b006bd266d5935478ef205ac2369a705e222e0c244d44f10",
    ("trap", "cor2", "faithful", False):
        "e07c963e6acd4bbfe240c99102aabb0b88cb1fb879c9def1737614d128b44075",
    ("trap", "cor3", "guarded", True):
        "2a0150b4b44d1d6e3c0655bb615df3b779ba8abeaed85473c541ce197555fdda",
    ("trap", "cor3", "guarded", False):
        "2a8925b5b9bce4d7d1b187062c439ec4aa218f9fd5feba54b4ebd825502a5b02",
    ("trap", "cor3", "faithful", True):
        "fc350275e227bed2e6a3ec59e253671bcf75db8c1a50e6801354130561b7d1c9",
    ("trap", "cor3", "faithful", False):
        "754e7ba9807e281f559e26aab7fd0710eecf6a9271ea5e88144747988af9e433",
    ("trap", "thm4", "guarded", True):
        "66eb5790d922e43605512f8d2e50e29c17a21cec792e119293c018ccc35e48f3",
    ("trap", "thm4", "guarded", False):
        "8964360e8a0f0fb88f5c047d3b16d4ecb475943cbc11ed8e4c49bd0fb38ef636",
    ("trap", "thm4", "faithful", True):
        "17527d5e4cccf3e0d11665fad8e7fe3206856994fa1c3eba5dde5a827ec777d2",
    ("trap", "thm4", "faithful", False):
        "ed9a6ffa21591b82119a831c52191216762eef349fbee84dd88d490c73addb18",
}


@pytest.mark.parametrize("name,construction,fidelity,normalize", sorted(PINNED_DIGESTS))
def test_compiled_text_pinned(name, construction, fidelity, normalize):
    machine = load_machine(machine_path(f"{name}.rm"))
    system = compile_machine(machine, construction,
                             CompileOptions(fidelity=fidelity, normalize=normalize))
    text = render_tp(system) if construction == "thm4" else render_tts(system)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name, construction, fidelity, normalize]
