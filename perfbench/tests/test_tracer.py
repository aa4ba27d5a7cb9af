import pytest

import folmi.cli
import folmi.stability
import folmi.synthesis
from folmi.synthesis import DynamicController
from perfbench import tracer
from perfbench.tracer import Instruments, covered, layer_metrics, ratio, self_times


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_covered_counts_overlaps_once_and_clips():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(2.0, 4.0, [(0.0, 1.0), (5.0, 6.0)]) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.x", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_ratio_of_nothing_measured_is_zero():
    assert ratio(3.0, 2.0) == 1.5
    assert ratio(3.0, 0) == 0.0


def test_sweep_split_follows_call_order():
    spans = [
        span("synthesis.certify", 0.0, 20.0),
        span("interval.enumerate_vertices", 0.0, 1.0, 0, {"count": 2}),
    ]
    # three realizations: two vertices, one sample
    for start in (2.0, 6.0, 10.0):
        spans.append(span("interval.realize", start, start + 1.0, 0))
        spans.append(span("stability.closed_loop", start + 1.0, start + 2.0, 0))
        spans.append(span("stability.sector_margin", start + 2.0, start + 3.0, 0))
    m = layer_metrics(spans, wall=20.0)
    assert m["certify.vertex_sweep_s"] == pytest.approx(6.0)
    assert m["certify.sample_sweep_s"] == pytest.approx(3.0)
    assert m["certify.realizations"] == 3
    assert m["certify.s_per_realization"] == pytest.approx(3.0)
    assert m["interval.vertices"] == 2
    assert m["trace.span_coverage"] == pytest.approx(1.0)


def test_layer_metrics_report_every_per_layer_metric():
    names = set(layer_metrics([], wall=0.0)) | {"trace.overhead_ratio"}
    assert names == set(tracer.PER_LAYER)


def test_instruments_record_spans_and_restore_every_name():
    originals = {
        (m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in tracer.TRACED
    }
    inst = Instruments()
    inst.install(traced=True)
    try:
        assert folmi.synthesis.sector_margin is not originals[
            ("folmi.synthesis", "sector_margin")
        ]
        config = folmi.cli.parse_config("example1")
        report = folmi.cli.certify(
            config.system(), DynamicController.static([[-2.0]]), sample_count=5
        )
    finally:
        inst.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(__import__(module, fromlist=[attr]), attr) is fn
    assert inst.missing == []

    names = [s[tracer.NAME] for s in inst.spans]
    assert names.count("stability.sector_margin") == report.vertex_count + 5
    certify = names.index("synthesis.certify")
    sectors = [s for s in inst.spans if s[tracer.NAME] == "stability.sector_margin"]
    assert all(s[tracer.PARENT] == certify for s in sectors)
    # the nominal analysis LMI is recorded under the name stability uses
    assert [kind for kind, *_ in inst.solves] == ["analysis"]
    analysis = names.index("stability.analysis_feasible")
    solve = names.index("lmi.analysis.solve")
    assert inst.spans[solve][tracer.PARENT] == analysis


def test_untraced_install_records_solves_without_spans():
    inst = Instruments()
    inst.install(traced=False)
    try:
        config = folmi.cli.parse_config("example1")
        folmi.cli.certify(config.system(), DynamicController.static([[-2.0]]),
                          sample_count=5)
    finally:
        inst.uninstall()
    assert inst.spans == []
    assert len(inst.solves) == 1
    assert folmi.stability.solve_feasibility is folmi.lmi.solve_feasibility
