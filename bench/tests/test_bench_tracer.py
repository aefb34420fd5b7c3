"""The tracer's arithmetic and the completeness of its wrapping."""

import importlib
import math

import pytest

from tracer import NAME, TAG, Tracer, _union, layer_metrics, self_times


def span(name, parent, start, end):
    return [name, None, parent, start, end, False, None]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("grandchild", 1, 2.0, 3.0),   # covered by a, not by root directly
        span("b", 0, 3.0, 6.0),            # overlaps a: [1, 6] counts once
        span("c", 0, 8.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 3.0 - 1.0, 1.0, 3.0, 1.0])


def test_union_merges_overlapping_and_nested_intervals():
    assert _union([]) == 0.0
    assert _union([(0.0, 2.0), (1.0, 3.0), (1.5, 2.5), (5.0, 6.0)]) == pytest.approx(4.0)


def test_triplet_scatter_records_three_online_and_six_offline_greens():
    scattering = importlib.import_module("pinstacks.scattering")
    original = scattering.scatter
    tracer = Tracer()
    tracer.install()
    try:
        scattering.scatter(scattering.PinStack.triplet(1.0, 0.252),
                           scattering.IncidentWave.from_angle(math.radians(30.0), 3.6))
    finally:
        tracer.uninstall()
    assert scattering.scatter is original
    greens = [s for s in tracer.spans if s[NAME] == "greens.greens"]
    assert sorted(s[TAG] for s in greens) == ["offline"] * 6 + ["online"] * 3
    layers = layer_metrics(tracer.spans)
    assert layers["scattering.scatter.calls"] == 1
    assert layers["scattering.greens_per_scatter"] == 9
    assert layers["greens.online.calls"] == 3
    assert layers["greens.offline.calls"] == 6
