"""Mate/drip vesicle computing: simulators and register machine compilers."""

from .multiset import EMPTY, Multiset, MultisetError, check_symbol, is_reserved
from .rules import (
    DripRule,
    MateRule,
    RuleError,
    apply_drip,
    apply_drip1,
    apply_mate,
    parse_rule,
)
from .regmach import (
    Add,
    Halt,
    MachineError,
    RegisterMachine,
    RunResult,
    Sub,
    enumerate_accepted,
    load_machine,
    normalize_clearing,
    parse_machine,
    run,
    step,
)
from .tts import (
    Bounds,
    FormatError,
    SupportFilter,
    TestTubeSystem,
    TTSState,
    TubeFilter,
    closure,
    is_fixpoint,
    load_tts,
    parse_tts,
    render_tts,
    results_of_state,
    validate_tts,
)
from .tp import (
    TissueSystem,
    TPRule,
    TPState,
    TPTrace,
    initial_state,
    load_tp,
    parse_tp,
    render_tp,
    tp_run,
    tp_step,
    validate_tp,
)
from .compilers import (
    CompileError,
    CompileOptions,
    SystemMetrics,
    compile_cor2,
    compile_cor3,
    compile_machine,
    compile_thm1,
    compile_thm4,
    metrics,
)
from .verify import VerifyReport, format_report, run_verify, vector_of

__version__ = "0.1.0"
