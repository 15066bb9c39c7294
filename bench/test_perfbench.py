"""Self-tests of the benchmark: seeded inputs, metric names, output checks.

Run with ``python -m pytest bench``.  They do not run the workloads.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import checks
import jobs
import run
import spans

BENCH = Path(__file__).resolve().parent
FIXTURE = BENCH / "testdata" / "overlap"


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seed_gives_identical_configs(workload, tmp_path):
    written = []
    for name in ("a", "b"):
        jobs.write_jobs(jobs.make_jobs(workload, 7), tmp_path / name)
        written.append({p.name: p.read_bytes() for p in
                        sorted((tmp_path / name / "configs").iterdir())})
    assert written[0] == written[1]
    assert jobs.make_jobs(workload, 8) != jobs.make_jobs(workload, 7)


def test_latin_hypercube_uses_every_stratum():
    import random

    n = 12
    samples = jobs.latin_hypercube(random.Random(3),
                                   {"t": (0.0, 1.0)}, n)
    assert sorted(int(s["t"] * n) for s in samples) == list(range(n))


def test_berry_radii_stay_inside_the_taylor_regime():
    for seed in range(50):
        for job in jobs.make_jobs("berry", seed):
            cfg = job["config"]
            radius = cfg["berry"]["radius_rel"]
            assert jobs.RADIUS_REL_MIN <= radius <= jobs.RADIUS_REL_MAX
            assert radius < jobs.taylor_radius_rel(cfg["theta"])


def _declared(kind):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"], m["better"]) for m in doc[kind]]


def test_metric_tables_match_benchmark_json():
    assert list(run.END_TO_END) == _declared("end_to_end")
    assert list(run.PER_LAYER) == _declared("per_layer")


def _fake_spans(tmp_path):
    """Spans of one traced pass: main -> binned_state -> raw_psi -> hyp2f1."""
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    hyp = tracer.wrap("specfun.hyp2f1_grid", lambda a, b, c, u: None)
    psi = tracer.wrap("wavefun.raw_psi",
                      lambda k, s, beta, theta, x: hyp(0, 0, 0, x))
    state = tracer.wrap("binbasis.binned_state",
                        lambda: [psi(1, 0, 1, 0, [0.0] * 5) for _ in range(2)])
    main = tracer.wrap("cli.main", lambda: state())
    main()
    tracer.save(tmp_path / "spans.npz")
    return spans.load(tmp_path / "spans.npz")


def test_self_time_is_duration_minus_children(tmp_path):
    sp = _fake_spans(tmp_path)
    names = list(sp["names"])
    own = dict(zip([names[i] for i in sp["name_ix"]], spans.self_times(sp)))
    # main [0,11], state [1,10], psi [2,5] and [6,9], hyp [3,4] and [7,8]
    assert own["cli.main"] == 2.0
    assert own["binbasis.binned_state"] == 3.0
    assert own["specfun.hyp2f1_grid"] == 1.0


def _records(bytes_written=0):
    """One untraced and one traced run of the single job behind _fake_spans."""
    return [{"job": "j00", "traced": False, "seconds": 10.0, "bytes": 0,
             "segments": [[10.0, 0]]},
            {"job": "j00", "traced": True, "seconds": 11.0,
             "bytes": bytes_written, "segments": [[11.0, 1]]}]


def test_pass_time_sums_per_job_medians_in_reference_units():
    runs = (("a", 1.0), ("b", 2.0), ("a", 5.0), ("b", 2.2), ("a", 1.2),
            ("b", 9.0))
    records = [{"job": j, "traced": False, "seconds": t,
                "segments": [[t, i]]} for i, (j, t) in enumerate(runs)]
    assert run.pass_time(records, False) == pytest.approx(1.2 + 2.2)
    assert run.pass_time(records, True) == 0.0
    refs = [1.0, 1.0, 1.0, 3.0, 1.0, 0.5, 1.0]
    # a's runs count 1/1, 5/2, 1.2/0.75; b's 2/1, 2.2/2, 9/0.75
    assert run.pass_time(records, False, refs) == pytest.approx(1.6 + 2.0)


def test_each_segment_counts_against_its_own_references():
    # 2 s against references 1 and 1, then 3 s against 1 and 2
    records = [{"job": "a", "traced": False, "seconds": 5.0,
                "segments": [[2.0, 0], [3.0, 1]]}]
    assert run.pass_time(records, False, [1.0, 1.0, 2.0]) \
        == pytest.approx(2.0 + 2.0)


def test_ref_clock_splits_a_job_at_reference_timings(monkeypatch):
    import worker

    now = iter([0.0, 0.1, 0.3, 0.5, 0.6]).__next__
    monkeypatch.setattr(worker.time, "perf_counter", now)
    clock = worker.RefClock(lambda: 1.0, 0.25)
    clock.start()      # reference 0 first; the job starts at 0.0
    clock.tick()       # 0.1: too soon
    clock.tick()       # 0.3: closes [0.3, ref 0], reference 1, resumes 0.5
    assert clock.stop() == [[0.3, 0], [pytest.approx(0.1), 1]]
    assert clock.refs == [1.0, 1.0]


def test_grid_kernel_runs_without_the_program():
    import subprocess
    import sys

    code = ("import sys, refkernel; assert refkernel.grid_kernel() > 0; "
            "assert not [m for m in sys.modules if m.startswith('csmres')]")
    assert subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          timeout=60).returncode == 0


def test_layer_metrics_print_the_declared_names(tmp_path):
    sp = _fake_spans(tmp_path)
    metrics = run.layer_metrics(sp, _records(bytes_written=10), [1.0] * 3)
    assert set(metrics) == {name for name, _, _ in _declared("per_layer")}
    assert metrics["binbasis.k_evals_per_bin"] == 2.0
    assert metrics["specfun.hyp2f1_grid.points"] == 10.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)


def test_trace_self_check_flags_missed_bindings(tmp_path):
    sp = _fake_spans(tmp_path)
    metrics = run.layer_metrics(sp, _records(), [1.0] * 3)
    quiet_cli = dict(metrics, **{"cli.self_s": 0.0})
    problems = run.trace_problems("overlap", sp, quiet_cli)
    assert any("complex_gamma" in p for p in problems)
    assert not any("cli self time" in p for p in problems)
    # a missed binbasis binding leaves its time in cli self time
    slow_cli = dict(metrics, **{"cli.self_s": 0.5 * metrics["trace.wall_s"]})
    assert any("cli self time" in p
               for p in run.trace_problems("overlap", sp, slow_cli))
    assert not any("cli self time" in p
                   for p in run.trace_problems("scan", sp, slow_cli))


def test_tracer_wraps_every_binding_of_a_public_function():
    import csmres.binbasis
    import csmres.wavefun

    original = csmres.wavefun.raw_psi
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        assert csmres.binbasis.raw_psi is csmres.wavefun.raw_psi
        assert csmres.wavefun.raw_psi.__wrapped__ is original
        # a binding the tracer did not see
        csmres.binbasis.raw_psi = original
        assert tracer.unwrapped() == ["csmres.binbasis.raw_psi"]
    finally:
        tracer.uninstall()
    assert csmres.wavefun.raw_psi is original
    assert csmres.binbasis.raw_psi is original


def test_repeat_with_other_bytes_counts_as_failed():
    entries = [{"name": "j00"}, {"name": "j01"}]
    report = {"warmup": {"digest": "w"}, "records": [
        {"job": "j00", "rc": 0, "digest": "w"},
        {"job": "j01", "rc": 0, "digest": "x"},
        {"job": "j00", "rc": 0, "digest": "w"},
        {"job": "j01", "rc": 0, "digest": "y"},
        {"job": "j00", "rc": 3, "digest": "w"}]}
    verdicts = {"j00": checks.Verdict(), "j01": checks.Verdict()}
    assert run.count_failures(entries, report, verdicts) == 2


@pytest.fixture
def captured(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(FIXTURE, out)
    return out


def test_captured_overlap_passes(captured):
    v = checks.check_job("overlap", captured / "config.json", captured)
    assert v.ok, v.problems
    assert 7.0 < v.digits < 9.0


def _flip_digit(path: Path, line_no: int, field: int, digit: int) -> None:
    """Change the ``digit``-th digit of one CSV field to another digit."""
    lines = path.read_text().split("\n")
    cells = lines[line_no].split(",")
    chars = list(cells[field])
    at = [i for i, ch in enumerate(chars) if ch.isdigit()][digit]
    chars[at] = "7" if chars[at] != "7" else "3"
    cells[field] = "".join(chars)
    lines[line_no] = ",".join(cells)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("line_no, field, digit", [
    (2, 3, 3),     # S[0,0]: a leading digit of the diagonal
    (3, 3, 16),    # S[0,1]: the last digit of a tiny off-diagonal entry
    (40, 4, 5),    # an H entry's imaginary part
])
def test_flipped_overlap_digit_fails(captured, line_no, field, digit):
    _flip_digit(captured / "overlap.csv", line_no, field, digit)
    v = checks.check_job("overlap", captured / "config.json", captured)
    assert not v.ok


def test_flipped_sigma_min_fails(captured):
    _flip_digit(captured / "degeneracy.csv", 2, 1, 3)
    v = checks.check_job("overlap", captured / "config.json", captured)
    assert not v.ok
