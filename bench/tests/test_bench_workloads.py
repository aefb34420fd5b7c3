"""Failure accounting of the workloads."""

import importlib

import run
import workloads


def test_forced_point_error_counts_toward_failed_frac(monkeypatch):
    scattering = importlib.import_module("pinstacks.scattering")
    errors = importlib.import_module("pinstacks.errors")
    scan = workloads.Scan30(seed=3)
    lo, _ = workloads.scan30_window(scan.shift)
    step = (workloads.SCAN30_BETA[1] - workloads.SCAN30_BETA[0]) / (workloads.SCAN30_POINTS - 1)
    bad = lo + 100 * step
    real = scattering.scatter

    def scatter(stack, inc, *args, **kwargs):
        if abs(inc.beta - bad) < 1e-12:
            raise errors.SingularSystem("forced")
        return real(stack, inc, *args, **kwargs)

    monkeypatch.setattr(scattering, "scatter", scatter)
    refs = workloads.load_refs()
    outcome = scan.check(scan.run_pass(), refs)
    assert outcome.failed == 3          # the same beta in each of the three scans
    assert not outcome.problems
    metrics = run.end_to_end([{"traced": False, "seconds": 1.0, "outcome": outcome}],
                             0.5, workloads.floors(refs))
    assert metrics["ok_frac"] == (outcome.attempted - 3) / outcome.attempted
    assert metrics["ops_ok_per_s"] == outcome.attempted - 3
