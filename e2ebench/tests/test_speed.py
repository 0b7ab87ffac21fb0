"""The speed meter: spins around and inside a timed section."""

from __future__ import annotations

import time

from e2ebench import harness


def test_clock_takes_inner_spins_out_of_the_section():
    meter = harness.SpeedMeter()
    mark = meter.mark()

    def section() -> None:
        time.sleep(0.02)
        meter.sample(20)  # >= 20 ms of spinning the section must not be charged

    seconds = meter.clock(section)
    assert 0.02 <= seconds < 0.035
    # 5 spins before, 20 inside, 5 after: all of them inform the slowdown.
    assert meter.mark() - mark == 30
    assert meter.slowdown(mark) > 0 and meter.slowdown() == meter.slowdown(mark)


def test_slowdown_is_the_median_spin_since_the_mark_over_the_reference():
    meter = harness.SpeedMeter()
    meter._spins = [1.0, 1.0, 1.0]
    mark = meter.mark()
    meter._spins += [2 * harness.SPIN_REFERENCE_S] * 3
    assert meter.slowdown(mark) == 2.0
    assert meter.slowdown() > 2.0
