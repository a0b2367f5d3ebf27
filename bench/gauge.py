"""A speed gauge: how fast this machine runs Python while an operation runs.

The benchmark runs on a shared host whose speed changes by up to 1.7x from
one second to the next as neighbours come and go.  A wall time alone then
says more about the neighbours than about matedrip.  The gauge times a fixed
piece of pure-Python work (`reference_loop`) many times during each timed
operation, from a SIGALRM handler every `PERIOD_S`, and `EDGE_SAMPLES` times
just before and just after it.  An operation's time at reference speed is its wall time,
less the time spent in the handler, scaled by

    REFERENCE_S / (mean duration of the reference loop during the operation)

so a slowdown that hits matedrip and the reference loop alike cancels out,
while a change that makes matedrip itself slower or faster does not.
REFERENCE_S is the loop's duration on the 2-core Xeon the benchmark was
written on when no neighbour slowed it; it only sets the unit.

Only the builtin `_signal` module is imported, so importing this module
before `import matedrip` leaves matedrip's import time as it is.
"""

import _signal
import time

PERIOD_S = 0.025         # one reference sample per 25 ms of operation
REFERENCE_ROUNDS = 1000
EDGE_SAMPLES = 3         # samples before and after, for short operations
REFERENCE_S = 0.00035    # the loop's duration at reference speed


class _Counter:
    __slots__ = ("value", "hits")

    def __init__(self):
        self.value, self.hits = 1, 0

    def bump(self, k):
        self.value = (self.value * 31 + k) & 0xFFFF
        return self.value


def _pick(x, y):
    return (x ^ y) & 63


# Made once, so the loop allocates no container and cannot set off the
# cyclic garbage collector, whose cost depends on matedrip's heap.
_COUNTER = _Counter()
_WORDS = ["a%d^%d" % (i, i % 7) for i in range(64)]
_TALLY = dict.fromkeys(_WORDS, 0)


def reference_loop() -> float:
    """Run the fixed reference work once; return its duration in seconds.

    The work mixes what matedrip's engines do most: calls of functions and
    methods, slot attributes, str-keyed dict updates and str methods.  A
    tighter loop (int arithmetic, or int-keyed dict updates alone) slowed
    less than matedrip when neighbours were busy.
    """
    counter, words, tally = _COUNTER, _WORDS, _TALLY
    start = time.perf_counter()
    for i in range(REFERENCE_ROUNDS):
        word = words[_pick(counter.bump(i), i)]
        tally[word] = (tally[word] + len(word)) & 0xFFFF
        if word.startswith("a1"):
            counter.hits = (counter.hits + 1) & 0xFF
    return time.perf_counter() - start


class Gauge:
    """Times callables and reports their wall time and reference speed.

    Use one Gauge at a time in a process; it owns SIGALRM while it runs.
    """

    def __init__(self):
        for _ in range(20):      # warm the loop up before it is trusted
            reference_loop()

    def measure(self, fn, *args):
        """Call fn(*args); return (result, wall_s, scale).

        wall_s excludes the time the gauge itself took; wall_s * scale is
        the call's time in seconds at reference speed.
        """
        samples = [reference_loop() for _ in range(EDGE_SAMPLES)]
        handler_s = [0.0]

        def on_alarm(_signum, _frame):
            start = time.perf_counter()
            samples.append(reference_loop())
            handler_s[0] += time.perf_counter() - start

        previous = _signal.signal(_signal.SIGALRM, on_alarm)
        try:
            _signal.setitimer(_signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            start = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - start
        finally:
            _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
            _signal.signal(_signal.SIGALRM, previous)
        samples += [reference_loop() for _ in range(EDGE_SAMPLES)]
        scale = REFERENCE_S * len(samples) / sum(samples)
        return result, wall - handler_s[0], scale
