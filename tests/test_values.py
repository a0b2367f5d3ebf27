"""The value semantics of the toolkit's record classes, built with
`multiset.value_class`: construction, `__post_init__` checks, equality,
hashing, frozenness and repr, as `dataclasses` gave them before."""

import sys

import pytest

from matedrip import (
    EMPTY,
    Add,
    Bounds,
    CompileError,
    CompileOptions,
    DripRule,
    Halt,
    MateRule,
    Multiset,
    RegisterMachine,
    RuleError,
    RunResult,
    Sub,
    SupportFilter,
    SystemMetrics,
    TestTubeSystem,
    TissueSystem,
    TPRule,
    TPState,
    TPTrace,
    TTSState,
    TubeFilter,
    VerifyReport,
)
from matedrip.compilers import _STEP, _MateEntry, _Skeleton

A, B = Multiset.of("a"), Multiset.of("b")
MATE = MateRule(EMPTY, A, B, EMPTY, A)
MACHINE = RegisterMachine(1, 1, "q0", {"q0": Halt()})

# (class, its fields in order with one value each, frozen)
VALUES = [
    (MateRule, dict(u=EMPTY, a=A, b=B, v=EMPTY, x=A), True),
    (DripRule, dict(u=EMPTY, c=A, v=EMPTY, y=B, z=EMPTY, one_sided=True), True),
    (Add, dict(register=1, next_label="q1"), True),
    (Sub, dict(register=2, nonzero="q1", zero="q2"), True),
    (Halt, dict(), True),
    (RegisterMachine, dict(registers=1, inputs=1, start="q0", instructions={"q0": Halt()}), False),
    (RunResult, dict(accepted=True, reason=None, label="q0", registers=(0, 2), steps=3), True),
    (Bounds, dict(max_size=4, max_population=50, max_iterations=6, keep_empty=False), True),
    (SupportFilter, dict(allowed=frozenset("ab")), True),
    (TubeFilter, dict(branches=(SupportFilter(frozenset("a")),)), True),
    (TestTubeSystem, dict(alphabet=frozenset("ab"), terminal=frozenset("a"), tubes=1,
                          axioms=(frozenset({A}),), rules=((MATE,),), filters=(),
                          outputs=frozenset({1})), False),
    (TTSState, dict(contents=(frozenset({A}),), pruned=False, iterations=2), True),
    (TPRule, dict(source=1, rule=MATE, target=2), True),
    (TissueSystem, dict(alphabet=frozenset("ab"), terminal=frozenset("a"), cells=2,
                        axioms=(frozenset({A}), frozenset()), rules=(TPRule(1, MATE, 2),),
                        output_cell=2), False),
    (TPState, dict(step=3, contents=(frozenset({A}), frozenset({B})),
                   result_log=frozenset({A}), pruned=True), True),
    (TPTrace, dict(populations=((1, 0), (1, 1)), steps=1, pruned=False), True),
    (CompileOptions, dict(fidelity="faithful", normalize=False), True),
    (SystemMetrics, dict(kind="TTS", compartments=3, max_axiom_weight=2, max_mate_weight=5,
                         max_drip_weight=0, max_drip1_weight=3, mate_rules=4, drip_rules=0,
                         drip1_rules=2), True),
    (_MateEntry, dict(rule=MATE, partners=(B,), goes="guess"), False),
    (_Skeleton, dict(machine=MACHINE, alphabet={"a", "b"}, terminal=frozenset("a"),
                     axioms=[A], mates=[_MateEntry(MATE, (B,))]), False),
    (VerifyReport, dict(machine="even.rm", construction="thm1", fidelity="guarded",
                        normalized=True, k=1, bound=4, fuel=500, engine_bounds=Bounds(),
                        max_steps=None, oracle=frozenset({(2,)}), system=frozenset({(2,)}),
                        beyond=frozenset(), excluded=frozenset(), engine_truncated=False,
                        pruned=False, verdict="match", missing=frozenset({(4,)}),
                        unexpected=frozenset({(3,)})), False),
]


@pytest.mark.parametrize("cls, fields, frozen", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_semantics(cls, fields, frozen):
    value = cls(*fields.values())
    assert value == cls(**fields)
    if fields:
        first, *rest = fields
        assert value == cls(fields[first], **{name: fields[name] for name in rest})
    assert value != object() and value.__eq__(object()) is NotImplemented
    for name, field in fields.items():
        assert getattr(value, name) == field
    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    name = next(iter(fields), "anything")
    if frozen:
        # hashed as the tuple of its fields, as a frozen dataclass was
        assert hash(value) == hash(cls(**fields)) == hash(tuple(fields.values()))
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert value == cls(**fields)
    else:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, name, None)
        assert getattr(value, name) is None and value != cls(**fields)


def test_defaults_fill_the_trailing_fields():
    assert Bounds() == Bounds(16, 50000, 500, True)
    limits = (10, 60000, 400)
    assert Bounds(*limits) == Bounds(max_size=10, max_population=60000, max_iterations=400)
    assert Bounds(*limits).keep_empty is True
    assert CompileOptions(fidelity="faithful") == CompileOptions("faithful", True)
    assert CompileOptions().fidelity == "guarded"
    assert DripRule(EMPTY, A, EMPTY, B, EMPTY).one_sided is False
    assert _MateEntry(MATE, (B,)).goes == _STEP
    report = VerifyReport(*list(VALUES[-1][1].values())[:-2])
    assert report.missing == report.unexpected == frozenset()


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="positive integers"):
        Bounds(True, 1, 1)
    with pytest.raises(ValueError, match="keep_empty"):
        Bounds(keep_empty=1)
    with pytest.raises(ValueError, match="fidelity"):
        CompileOptions(fidelity="exact")
    heavy = Multiset({"a": sys.maxsize})
    with pytest.raises(RuleError, match="over the limit"):
        MateRule(heavy, A, EMPTY, EMPTY, EMPTY)
    with pytest.raises(RuleError, match="over the limit"):
        DripRule(heavy, A, EMPTY, EMPTY, EMPTY)
    with pytest.raises(CompileError, match="does not cover"):
        _MateEntry(MATE, (A,))
    # the checks also keep what they derive
    assert MATE._left_need == A and MATE._right_need == B


def test_bad_arguments_raise_type_error():
    for args, kwargs in (((1, 2, 3, True, 5), {}), ((), {"max_sise": 3}),
                         ((4,), {"max_size": 4}), ((), {"keep_empty": "no", "extra": 1})):
        with pytest.raises(TypeError, match=r"Bounds\(\) takes each of"):
            Bounds(*args, **kwargs)
    with pytest.raises(TypeError, match="0 by position and \\[\\] by keyword"):
        Add()
