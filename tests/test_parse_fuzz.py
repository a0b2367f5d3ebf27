"""Arbitrary text through the three file parsers.

Lines are directive-shaped (a known head followed by tokens that are
sometimes valid and sometimes not) mixed with arbitrary text, blank lines
and comments.  Only the parser's own error type may come out.  An error
about one line starts with `line N:` naming a non-blank line; any other
error must be one of the whole-file messages: a missing declaration or a
problem found by validating the parsed machine or system.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from matedrip import FormatError, MachineError, parse_machine, parse_tp, parse_tts

FUZZ = settings(derandomize=True, max_examples=80, database=None, deadline=None)

# past int()'s default limit of 4300 digits
LONG_NUMERAL = "9" * 4301

# printable ASCII with whitespace, digits and symbols that int() and
# str.isdigit treat differently, and characters that split lines
CHARS = "".join(map(chr, range(32, 127))) + "\t\x0b\x00\xa0\u2028\u00b2\u0662\u00e9{}^#@"
junk = st.text(CHARS, max_size=6)
numerals = st.one_of(st.sampled_from(["0", "1", "2", "3", "-1", "+1", "1_0", "٢",
                                      "²", "1.5", LONG_NUMERAL]), junk)
# compartment and register counts, on both sides of the compartment cap
counts = st.one_of(st.sampled_from(["0", "1", "2", "3", "-1", "1_0", "x", "1000", "1001",
                                    "99999999999"]), junk)
labels = st.one_of(st.sampled_from(["l0", "l1", "lh", "@l", "a^2", "."]), junk)
symbols = st.sampled_from(["a", "b", "c", "@X", "a^2", "b^0", "a^" + LONG_NUMERAL, ".",
                           "x{", "}", "|", ",", ";"])
multisets = st.lists(symbols, max_size=3).map(" ".join)
braced = st.one_of(multisets.map("{{{}}}".format), multisets)
rules = st.one_of(
    st.builds("MATE ({} | {} , {} | {} ; {})".format, *[multisets] * 5),
    st.builds("{} ({} | {} | {} ; {} , {})".format, st.sampled_from(["DRIP", "DRIP1"]),
              *[multisets] * 5),
    st.builds("{} {}".format, st.sampled_from(["MATE", "DRIP", "WAT"]), junk),
)
separators = st.sampled_from([" ", "\t", "  "])


def _line(head, *parts):
    return st.builds(lambda sep, *rest: sep.join((head, *rest)), separators, *parts)


def _texts(directives):
    noise = st.one_of(junk, st.just(""), st.just("# comment"), st.text(CHARS, max_size=20))
    lines = st.lists(st.one_of(directives, directives, noise), max_size=10)
    return lines.map("\n".join)


machine_texts = _texts(st.one_of(
    _line("REGISTERS", counts), _line("INPUTS", numerals), _line("START", labels),
    st.builds("{} ADD {} {}".format, labels, numerals, labels),
    st.builds("{} SUB {} {} {}".format, labels, numerals, labels, labels),
    st.builds("{} HALT".format, labels),
    st.builds("{} {}".format, labels, junk),
))

# well-formed headers and instructions, so that parsing reaches validation:
# registers out of range, undefined labels, arity above the register count
valid_labels = st.sampled_from(["l0", "l1", "lh", "l9"])
registers = st.sampled_from(["0", "1", "2", "3"])
program_texts = st.builds(
    "{}\n{}".format,
    st.sampled_from(["REGISTERS 1\nINPUTS 1\nSTART l0", "REGISTERS 2\nINPUTS 3\nSTART l0",
                     "INPUTS 1\n\nSTART l9\nREGISTERS 2"]),
    st.lists(st.one_of(st.builds("{} ADD {} {}".format, valid_labels, registers, valid_labels),
                       st.builds("{} SUB {} {} {}".format, valid_labels, registers, valid_labels,
                                 valid_labels),
                       st.builds("{} HALT".format, valid_labels)), max_size=5).map("\n".join))


def _system_lines(kind, count_head, tp):
    target = st.builds(" -> {}".format, numerals) if tp else st.just("")
    heads = [
        _line("SYSTEM", st.sampled_from([kind, kind.lower(), "TTS", "TP", ""])),
        _line("ALPHABET", st.lists(st.sampled_from(["a", "b", "c", "@X"]), max_size=4).map(" ".join)),
        _line("TERMINAL", st.lists(st.sampled_from(["a", "b", "z"]), max_size=2).map(" ".join)),
        _line(count_head, counts),
        _line("OUTPUT", numerals),
        _line("AXIOM", numerals, braced),
        st.builds("RULE {} {}{}".format, numerals, rules, target),
        st.builds("{} {}".format, st.sampled_from(["FOO", "RULE", "AXIOM", "OUTPUT"]), junk),
    ]
    if not tp:
        heads.append(st.builds("FILTER {} -> {} {} {}".format, numerals, numerals,
                               st.sampled_from(["SUPPORT", "support", "ALLOW"]), braced))
    return st.one_of(*heads)


tts_texts = _texts(_system_lines("TTS", "TUBES", tp=False))
tp_texts = _texts(_system_lines("TP", "CELLS", tp=True))

_LINE = re.compile(r"line (\d+): ")
_MACHINE_WHOLE = re.compile(
    r"missing (REGISTERS|INPUTS|START) line|register count must be positive"
    r"|expected exactly one HALT instruction, found \d+")
_SYSTEM_WHOLE = re.compile(
    r"system must declare .*|(tube|cell) count must be positive"
    r"|terminal alphabet must be a subset of the alphabet"
    r"|.* uses symbols outside the alphabet: .*|filter \(\d+ -> \d+\) must connect two distinct tubes"
    r"|rule \d+: .* keeps results in its own cell")


def _check(parse, error, whole_file, text):
    try:
        parse(text)
    except error as exc:
        message = str(exc)
        at = _LINE.match(message)
        if at:
            lines = text.splitlines()
            n = int(at.group(1))
            assert 1 <= n <= len(lines) and lines[n - 1].split("#", 1)[0].strip(), message
        else:
            for problem in message.split("; "):
                assert whole_file.fullmatch(problem), message


@FUZZ
@given(machine_texts)
def test_fuzzed_machine_text(text):
    _check(parse_machine, MachineError, _MACHINE_WHOLE, text)


@FUZZ
@given(program_texts)
def test_fuzzed_machine_program(text):
    _check(parse_machine, MachineError, _MACHINE_WHOLE, text)


@FUZZ
@given(tts_texts)
def test_fuzzed_tts_text(text):
    _check(parse_tts, FormatError, _SYSTEM_WHOLE, text)


@FUZZ
@given(tp_texts)
def test_fuzzed_tp_text(text):
    _check(parse_tp, FormatError, _SYSTEM_WHOLE, text)


def test_long_numerals_name_their_line():
    text = f"REGISTERS 1\nINPUTS 1\nSTART l0\nl0 ADD {LONG_NUMERAL} lh\nlh HALT\n"
    with pytest.raises(MachineError, match="^line 4: "):
        parse_machine(text)
