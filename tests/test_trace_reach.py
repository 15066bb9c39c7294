"""The benchmark's traced workloads reach every span they expect.

``bench/run.py`` aborts a traced run when a span of ``EXPECTED_SPANS``
never happens, which is how a code path that bypasses a public function
(``hyp2f1_grid`` or ``product_entry``, say) shows.  Here the same check
runs at golden size in-process, with the benchmark's own tracer
(``bench/spans.py``), so the tier-1 tests catch it.
"""

import sys
from pathlib import Path

import pytest

from csmres import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden" / "config.json"
# the commands one job of each benchmark workload runs (bench/NOTES.md)
COMMANDS = {"overlap": ("overlap",), "berry": ("berry",),
            "scan": ("spectrum", "regions", "wavefunction")}


@pytest.fixture(scope="module")
def bench():
    """bench/run.py and bench/spans.py, imported as the benchmark does."""
    sys.path.insert(0, str(BENCH))
    try:
        import run
        import spans
        yield run, spans
    finally:
        sys.path.remove(str(BENCH))


def traced_names(spans, commands, out) -> list:
    """The span name of each call a golden run of ``commands`` records."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        for command in commands:
            # cli.main is read after install, so the call is traced
            assert cli.main(["--config", str(GOLDEN_CONFIG),
                             "--out", str(out), command]) == 0
    finally:
        tracer.uninstall()
    return [tracer.names[row[0]] for row in tracer.rows]


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_golden_run_reaches_every_expected_span(bench, workload, tmp_path):
    run, spans = bench
    assert set(COMMANDS) == set(run.EXPECTED_SPANS)
    seen = set(traced_names(spans, COMMANDS[workload], tmp_path))
    assert set(run.EXPECTED_SPANS[workload]) - seen == set()


def test_overlap_matrices_take_one_pass_each(bench, tmp_path):
    # S and H of the real-axis bins come from one ``overlap_matrix`` call,
    # whose span the layer metrics read; the degeneracy points take none
    _, spans = bench
    names = traced_names(spans, ("overlap",), tmp_path)
    assert names.count("binbasis.overlap_matrix") == 1
