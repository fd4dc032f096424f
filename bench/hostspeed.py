"""Host-speed calibration: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed for this
process swings by up to 1.8x over seconds to minutes (a busy hyperthread
sibling or a frequency change; it shows in the process's CPU time too, so
CPU time does not help).  Between two runs of the same code that swing
alone moved the median op time by more than any bound a regression check
could use.

So a fixed calibration kernel, which calls nothing from the library, is
timed right before every op and set-up step.  A measured time t is
reported as t * REFERENCE_S / c, where c is the kernel's time around that
measurement: the time the work would take on a host on which the kernel
takes REFERENCE_S.  A change to the library moves t and leaves c alone,
so it moves the reported figure by the same factor as the wall time.
The wall-clock figures are printed on the environment line next to them.

The kernel is shift-xor multiplication of Python ints modulo a degree-100
polynomial, the arithmetic of GF(2^100).  For one op of each workload
repeated for a minute, the op's time grew by 0.9-1.2 % per 1 % of this
kernel's time, so scaling in proportion to it fits every workload.  A
kernel of small numpy calls on short slices (the per-cell steps of the
matching and verification DPs) swung more than the ops did (they grew by
0.6-0.7 % per 1 % of its time), so runs on a slow host read fast; it is
not used.
"""

from __future__ import annotations

from time import perf_counter

# A round figure near the kernel's time on the 2-vCPU Xeon VM the
# benchmark was defined on.
REFERENCE_S = 0.005

_MODULUS = (1 << 100) | 0b1001011
_A = 0x9E3779B97F4A7C15F39CC0605


def kernel() -> int:
    acc = 0
    for i in range(1000):
        a, b, x = _A ^ i, (i * 40503) | 1, 0
        while b:
            if b & 1:
                x ^= a
            a <<= 1
            if a >> 100:
                a ^= _MODULUS
            b >>= 1
        acc ^= x
    return acc


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(times: list[float], cals: list[float]) -> list[float]:
    """Scale times[i], measured between cals[i] and cals[i + 1], to the
    reference speed, using the mean of those two samples.  The host's
    speed changes within a second, so samples further away track it
    worse: with a wider window the scaled times of one repeated op spread
    more."""
    assert len(cals) == len(times) + 1
    return [t * REFERENCE_S / ((cals[i] + cals[i + 1]) / 2)
            for i, t in enumerate(times)]
