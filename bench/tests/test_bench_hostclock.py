"""The reference-host clock's arithmetic."""

import pytest

import hostclock
from hostclock import REF_KERNEL_S, Ticker


def test_stretches_are_scaled_by_the_kernel_times_around_them():
    ticker = Ticker()
    ref = REF_KERNEL_S
    # kernel runs at reference speed, then twice as slow, then at reference speed
    ticker.ticks = [(0.0, ref), (1.0, 1.0 + 2 * ref), (3.0, 3.0 + ref)]
    work = (1.0 - ref) + (3.0 - 1.0 - 2 * ref)
    assert ticker.work_seconds() == pytest.approx(work)
    # each stretch is divided by the mean slowdown of its two bracketing runs
    assert ticker.reference_seconds() == pytest.approx(
        (1.0 - ref) / 1.5 + (2.0 - 2 * ref) / 1.5)
    assert ticker.slowdown() == pytest.approx(1.0)


def test_ticker_samples_during_the_pass_and_restores_the_alarm():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with Ticker() as ticker:
        end = perf_counter() + 3.5 * hostclock.TICK_S
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ticker.ticks) >= 4          # start, at least two ticks, end
    assert 0.0 < ticker.work_seconds() < 3.5 * hostclock.TICK_S
    assert ticker.reference_seconds() > 0.0
