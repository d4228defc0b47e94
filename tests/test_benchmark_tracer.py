"""The benchmark's tracer binds names and parameters of the package
(benchmark/tracing.py reads them through inspect); a change under src/ that
drops one fails here, not only in a traced benchmark run."""

import importlib.util
from collections import Counter
from pathlib import Path

from delta_lens import census, contours

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_catalog_a_trace_and_a_box():
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        census.build_catalog("delta5_merged", 5.0)
        contours.trace_phase_zero_line(1)
        contours.argument_principle_box(1, 2)
    finally:
        tracer.uninstall()
    names = Counter(span["name"] for span in tracer.spans)
    assert names == {"census.build_catalog": 1, "critical.singular_points_delta5": 1,
                     "critical.window_scan": 2, "critical.find_zeros": 9,
                     "contours.trace": 1, "contours.box": 1, "contours.winding": 1}
    scans = [span for span in tracer.spans if span["name"] == "critical.find_zeros"]
    assert all(span["scan_points"] > 0 for span in scans)
    assert [span["line"] for span in tracer.spans if span["name"] == "contours.trace"] == [["phase_zero", 1]]
