"""The CLI's columnar writer against the per-cell writer it replaced.

``_fmt``, ``_jnum``, ``_write_csv`` and ``_write_json`` below are that
writer: one ``.17g`` format per cell and the stdlib's indented
``json.dump``.  They are the oracle for the text of a column, for the JSON
text of a payload, and for the bytes of whole workflows at benchmark size,
where golden files would be too large to commit.
"""

import json
import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from csmres import cli, wavefun
from csmres.cli import _CSV_BLOCK, _KERNEL_FLOOR, _Json, _Pooled, _Records, \
    _emit, _encode, _escape, _kernel_rows, _number_rows, _repeated_texts, main
from csmres.errors import PreconditionViolation
from csmres.eploop import LoopSpec, _sheet_slope, run_berry_loop
from csmres.model import ModelParams, branch_point, branch_point_coupling
from csmres.wavefun import WaveField, default_grid, eval_wavefunction

DOUBLE_MAX = 1.7976931348623157e308


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _decoded(rows) -> list:
    """The text of each row of bytes the writer formats, its NUL padding
    dropped."""
    return [row.tobytes().rstrip(b"\0").decode() for row in rows]


def _texts(values) -> list:
    """The writer's number text of each real value."""
    return _decoded(_number_rows(values))


def _jnum(v):
    """JSON payload value with controlled 17-significant-digit text."""
    if isinstance(v, complex):
        return {"re": _fmt(v.real), "im": _fmt(v.imag)}
    if isinstance(v, float):
        return _fmt(v)
    return v


def _write_csv(path, workflow: str, header, rows) -> None:
    lines = [f"# csmres {workflow} v1", ",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _n_records(fields: dict) -> int:
    column = next(iter(fields.values()))
    return _n_records(column) if isinstance(column, dict) else len(column)


def _cell(column, i: int):
    """Cell ``i`` of a writer column as the per-cell writer took it."""
    if isinstance(column, np.ndarray):
        return _fmt(column[i])
    if isinstance(column, _Pooled):
        return _decoded(column[i:i + 1])[0]
    return json.loads(column[i]) if isinstance(column, _Json) else column[i]


def _record_at(fields: dict, i: int) -> dict:
    return {key: _record_at(col, i) if isinstance(col, dict)
            else _cell(col, i) for key, col in fields.items()}


def _per_cell(value):
    """The payload the per-cell writer took for a payload of the CLI's:
    records as a list of dicts, floats and complex numbers as text."""
    if isinstance(value, _Records):
        return [_record_at(value.fields, i)
                for i in range(_n_records(value.fields))]
    if isinstance(value, dict):
        return {key: _per_cell(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_per_cell(item) for item in value]
    return _jnum(value)


def _columns(n: int):
    """Record fields of ``n`` records: real values, number text, pooled
    number text, escaped labels and integers, some nested in objects."""
    def cells(values):
        return st.lists(values, min_size=n, max_size=n)

    column = st.one_of(
        cells(st.floats()).map(lambda values: np.array(values, dtype=float)),
        cells(st.floats()).map(_texts),
        cells(st.floats()).map(lambda values: _repeated_texts(values)[0]),
        cells(st.text()).map(lambda labels: _Json(map(_escape, labels))),
        cells(st.integers()).map(lambda ints: _Json(map(str, ints))))
    return st.dictionaries(st.text(max_size=4), st.recursive(
        column, lambda inner: st.dictionaries(st.text(max_size=4), inner,
                                              min_size=1, max_size=3),
        max_leaves=4), min_size=1, max_size=4)


RECORDS = st.integers(0, 5).flatmap(_columns).map(_Records)
PAYLOADS = st.dictionaries(st.text(max_size=6), st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
              st.floats(), st.complex_numbers(), RECORDS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8), max_size=5)


@given(st.lists(st.floats(), max_size=40))
@example([-0.0, 0.0, 5e-324, -2.2250738585072009e-308, DOUBLE_MAX,
          -DOUBLE_MAX, math.inf, -math.inf, math.nan, 0.1, 1e16, 123456789.0])
def test_column_text_is_the_per_cell_format(values):
    assert _texts(values) == [f"{v:.17g}" for v in values]


def _percent(values) -> list:
    return ["%.17g" % v for v in values]


# Values whose text takes each branch of the digit kernel, and those it
# leaves to `%`: zeros, the smallest subnormal and normal, the largest
# float, infinities and nan; an exact tie of the 17th digit; values whose
# 17-digit rounding reaches the next decade; exponents of two and three
# digits of both signs, at the ends of the fixed-point range and past
# them; and values a with a 10^(16 - e) within 1e-16 of a half-integer
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, DOUBLE_MAX,
    -DOUBLE_MAX, math.inf, -math.inf, math.nan, 1234567890123456.75,
    99999999999999999.0, 0.00099999999999999999, 9.9999999999999999e22,
    -1.5e-5, 2.5e-17, 3.25e17, -4.125e99, 1e-99, -7.0710678118654751e-101,
    1.2505001333635619e-201, 3.1254167000021161e+202, -9.87e-300, 6e299,
    1e-280, 1e280, 0.0001, -0.00012345678901234567, 1e16, -12345678901234567.0,
    8.839990188244671e-15, 6.83280278535067e-12, 2.3233180180504022e-11,
    4.974148370910348e-10, 1.0076000255121024e-08]
# 10^k for k in -300..299, each with both float neighbours
POWERS_OF_TEN = [v for k in range(-300, 300) for v in (
    np.nextafter(float(f"1e{k}"), -math.inf), float(f"1e{k}"),
    np.nextafter(float(f"1e{k}"), math.inf))]


def test_kernel_text_of_edge_values_is_the_percent_format():
    block = EDGE_VALUES + POWERS_OF_TEN
    assert _KERNEL_FLOOR <= len(block) <= _CSV_BLOCK
    assert _texts(block) == _percent(block)
    # below the floor too, where _number_rows would use `%`
    assert _decoded(_kernel_rows(np.array(EDGE_VALUES))) \
        == _percent(EDGE_VALUES)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from((_KERNEL_FLOOR, 1000, _CSV_BLOCK + 1,
                        _CSV_BLOCK + _KERNEL_FLOOR)).flatmap(
    lambda n: st.binary(min_size=8 * n, max_size=8 * n)))
def test_kernel_text_of_any_bits_is_the_percent_format(data):
    # blocks at or above the floor, of uniform bit patterns: about 90% of
    # them inside the kernel's range, the rest subnormal, huge or not finite
    values = np.frombuffer(data, dtype=float)
    assert _texts(values) == _percent(values.tolist())


def test_berry_formatting_memory_is_bounded_by_the_block():
    # the pooled texts of a 4 x 1024 loop, about 8 800 bit patterns, are
    # formatted in passes of _CSV_BLOCK values, and each block gathers the
    # rows of its own cells: measured 1.7 MB traced, where gathering the
    # texts of the whole table peaked at 2.1 MB
    theta = 0.4
    trace, _ = run_berry_loop(ModelParams(lam=1.0, theta=theta), LoopSpec(
        radius=1e-5 * branch_point_coupling(theta, 1.0, 1.0, 1.0),
        windings=4, n_steps=1024))
    columns = list(chain.from_iterable(
        (values.real, values.imag) for values in (
            trace.lam, trace.e_plus, trace.e_minus, trace.accumulated)))
    _texts(np.full(_KERNEL_FLOOR, 0.5))  # builds the kernel's tables
    tracemalloc.start()
    try:
        pooled = _repeated_texts(*columns)
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            for column in pooled:
                assert column[start:start + _CSV_BLOCK].shape[1] == 24
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_berry_writer_memory_is_bounded_by_its_lines(tmp_path):
    # a whole `csmres berry` run of a 4 x 1024 loop, whose CSV lines are
    # about 260 bytes wide before their padding is dropped: measured
    # 2.35 MB traced with lines built _LINE_ROWS at a time, 2.95 MB with a
    # whole block's lines in one array (2.68 MB with the rows joined as
    # Python text)
    config = {"theta": 0.4, "berry": {"radius_rel": 1e-5, "windings": 4,
                                      "n_steps": 1024}}
    _cli(tmp_path, "berry", config)  # builds what a run caches
    tracemalloc.start()
    try:
        _cli(tmp_path, "berry", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.65e6


@st.composite
def _shared_columns(draw):
    """1 to 5 equal-length columns whose cells are drawn from one pool of
    values, signed zeros among them, or are any float."""
    n = draw(st.integers(0, 40))
    pool = draw(st.lists(st.floats(), max_size=6)) + [0.0, -0.0, 1.0, -1.0]
    cell = st.sampled_from(pool) | st.floats()
    return draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=1, max_size=5))


@given(_shared_columns())
@example([[1.0, -0.0, 0.0, -0.0, -1.0, 0.0]])
@example([[0.0, -0.0, 0.5], [-0.0, 0.5, 0.0], [0.5, 0.0, -0.0]])
@example([[], []])
def test_repeated_text_is_the_per_cell_format(columns):
    # one text per bit pattern, not per value: -0.0 keeps its sign, and a
    # pattern shared by several columns has the same text in each; a slice
    # of a pooled column gathers the rows of its cells
    pooled = _repeated_texts(*columns)
    assert [_decoded(column[:]) for column in pooled] == [
        [f"{v:.17g}" for v in column] for column in columns]
    assert all(len(column[1:]) == max(len(column) - 1, 0)
               for column in pooled)


@given(PAYLOADS)
@example({"labels": _Records({"row": _Json(map(_escape, ['"%s"', "\\\x00é"])),
                              "100%": ["1", "-0"]}),
          "empty": _Records({"re": np.array([])}), "order": None, "n": 4,
          "nested": {"": {}, "list": []}})
def test_json_text_is_the_stdlib_encoders(payload):
    out = []
    _encode(payload, "", out.append)
    assert b"".join(out) == json.dumps(_per_cell(payload), indent=2,
                                       sort_keys=True).encode()


def _cli(tmp_path, command: str, config: dict):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "cli"),
                 command]) == 0
    return tmp_path / "cli"


def _assert_same_files(new, old, names):
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_bench_size_wavefunction_matches_the_per_cell_writer(tmp_path):
    k, theta = complex(1.5, -0.4), 0.4
    new = _cli(tmp_path, "wavefunction", {
        "theta": theta, "wavefunction": {
            "k": {"re": k.real, "im": k.imag}, "x_max": 20.0,
            "n_points": 16385}})

    params = ModelParams(lam=1.0, theta=theta)
    field = eval_wavefunction(params, k, default_grid(1.0, 20.0, 16385))
    rows = [[_fmt(xv), _fmt(pv.real), _fmt(pv.imag)]
            for xv, pv in zip(field.grid, field.values)]
    old = tmp_path / "old"
    old.mkdir()
    _write_csv(old / "wavefunction.csv", "wavefunction",
               ["x", "re_psi", "im_psi"], rows)
    _write_json(old / "wavefunction.json", {
        "workflow": "wavefunction",
        "k": _jnum(k),
        "lam": _jnum(complex(params.lam)),
        "theta": _jnum(params.theta),
        "tail_plus": _jnum(field.tail[0]),
        "tail_minus": _jnum(field.tail[1]),
        "samples": [{"x": r[0], "re": r[1], "im": r[2]} for r in rows],
    })
    _assert_same_files(new, old, ("wavefunction.csv", "wavefunction.json"))


def test_bench_size_berry_loop_matches_the_per_cell_writer(tmp_path):
    theta, radius_rel, windings, n_steps = 0.4, 1e-5, 4, 1024
    new = _cli(tmp_path, "berry", {
        "theta": theta, "berry": {"radius_rel": radius_rel,
                                  "windings": windings, "n_steps": n_steps}})

    params = ModelParams(lam=1.0, theta=theta)
    lam_bp = branch_point_coupling(theta, 1.0, 1.0, 1.0)
    trace, verdicts = run_berry_loop(params, LoopSpec(
        radius=radius_rel * lam_bp, windings=windings, n_steps=n_steps))
    rows = []
    for j in range(len(trace.phi)):
        rows.append([
            _fmt(trace.phi[j]),
            _fmt(trace.lam[j].real), _fmt(trace.lam[j].imag),
            _fmt(trace.e_plus[j].real), _fmt(trace.e_plus[j].imag),
            _fmt(trace.e_minus[j].real), _fmt(trace.e_minus[j].imag),
            trace.region[j],
            _fmt(trace.accumulated[j].real), _fmt(trace.accumulated[j].imag),
            _fmt(trace.unwrapped_phase[j]),
        ])
    assert len(rows) == windings * n_steps + 1
    old = tmp_path / "old"
    old.mkdir()
    _write_csv(old / "berry.csv", "berry",
               ["phi", "re_lambda", "im_lambda", "re_E_plus", "im_E_plus",
                "re_E_minus", "im_E_minus", "region", "re_factor",
                "im_factor", "unwrapped_phase"], rows)
    _write_json(old / "berry.json", {
        "workflow": "berry",
        "alpha": _jnum(_sheet_slope(params, branch_point(params)[2])),
        "t_coefficient": _jnum(1.0 / 6.0),
        "ratio_2pi": _jnum(verdicts["ratio_2pi"]),
        "overlap_4pi": _jnum(verdicts["overlap_4pi"]),
        "overlap_8pi": _jnum(verdicts["overlap_8pi"]),
        "monodromy_order": verdicts["monodromy_order"],
        "connection_consistency": _jnum(verdicts["connection_consistency"]),
    })
    _assert_same_files(new, old, ("berry.csv", "berry.json"))


def _mismatches(texts, values) -> int:
    """Cells whose text is not the 17-digit format of the matching value."""
    return sum(text != f"{v:.17g}"
               for text, v in zip(texts, values, strict=True))


@pytest.mark.parametrize("windings", (1, 4))
@pytest.mark.parametrize("theta, radius_rel",
                         ((0.06, 1e-7), (0.4, 1e-6), (0.74, 1e-6)))
def test_berry_csv_cells_are_the_loop_trace(tmp_path, theta, radius_rel,
                                            windings):
    # one winding repeats few values; four repeat couplings, swapped
    # sheets and factors, which the CLI formats once per bit pattern
    n_steps = 1024
    new = _cli(tmp_path, "berry", {
        "theta": theta, "berry": {"radius_rel": radius_rel,
                                  "windings": windings, "n_steps": n_steps}})
    trace, _ = run_berry_loop(ModelParams(lam=1.0, theta=theta), LoopSpec(
        radius=radius_rel * branch_point_coupling(theta, 1.0, 1.0, 1.0),
        windings=windings, n_steps=n_steps))
    lines = (new / "berry.csv").read_text().splitlines()
    cells = dict(zip(lines[1].split(","),
                     map(list, zip(*(line.split(",") for line in lines[2:])))))
    assert cells.pop("region") == list(trace.region)
    values = {
        "phi": trace.phi, "re_lambda": trace.lam.real,
        "im_lambda": trace.lam.imag, "re_E_plus": trace.e_plus.real,
        "im_E_plus": trace.e_plus.imag, "re_E_minus": trace.e_minus.real,
        "im_E_minus": trace.e_minus.imag, "re_factor": trace.accumulated.real,
        "im_factor": trace.accumulated.imag,
        "unwrapped_phase": trace.unwrapped_phase}
    assert list(cells) == list(values)
    for name, texts in cells.items():
        assert _mismatches(texts, values[name]) == 0, name
        # the check sees a column whose cells are one row off
        assert _mismatches(texts[1:] + texts[:1], values[name]) > 0, name


@pytest.mark.parametrize("n_rows", (0, 1, _CSV_BLOCK - 1, _CSV_BLOCK,
                                    _CSV_BLOCK + 1, 2 * _CSV_BLOCK))
def test_csv_blocks_match_the_per_cell_writer(tmp_path, n_rows):
    # one CSV file of two tables, whose record arrays the JSON writes in
    # the other order (as overlap.json writes H before S): the rows of the
    # second table are held until the first table's are written
    def table(label, values):
        return {"n": _Json(map(str, range(n_rows))), "x": values,
                "label": [label] * n_rows}

    first = table("A", np.arange(n_rows) / 7.0)
    second = table("B", np.sqrt(np.arange(n_rows) + 0.5))
    payload = {"rows": _Records(first, n=first["n"], xs={"x": first["x"]}),
               "earlier": _Records(second), "name": "table"}
    old = tmp_path / "old"
    old.mkdir()
    _write_csv(old / "table.csv", "table", list(first), chain(*(
        zip(t["n"], map(_fmt, t["x"]), t["label"]) for t in (first, second))))
    _write_json(old / "table.json", _per_cell(payload))
    for fmt, names in (("csv", {"table.csv"}), ("json", {"table.json"}),
                       ("both", {"table.csv", "table.json"})):
        new = tmp_path / fmt
        _emit(str(new), fmt, {"table": [first, second]}, payload)
        assert {p.name for p in new.iterdir()} == names
        _assert_same_files(new, old, sorted(names))


def test_header_only_table_matches_the_per_cell_writer(tmp_path):
    # no deltas: degeneracy.csv is its two header lines, with no blank row
    new = _cli(tmp_path, "overlap", {"overlap": {"n_bins": 2, "deltas": []}})
    old = tmp_path / "old"
    old.mkdir()
    _write_csv(old / "degeneracy.csv", "degeneracy",
               ["delta", "sigma_min", "cond"], [])
    _assert_same_files(new, old, ("degeneracy.csv",))
    assert (new / "degeneracy.csv").read_bytes() \
        == b"# csmres degeneracy v1\ndelta,sigma_min,cond\n"


def _fixed_field(monkeypatch, n_points: int) -> None:
    """Make ``csmres wavefunction`` write a precomputed ``n_points``-point
    field, so that a run allocates only what the CLI does."""
    grid = np.linspace(-20.0, 20.0, n_points)
    field = WaveField(grid=grid, values=np.exp((0.7j - 0.1) * grid) * 1.1j,
                      tail=(-0.3 + 1.5j, 0.3 - 1.5j))
    monkeypatch.setattr(wavefun, "default_grid", lambda *args: grid)
    monkeypatch.setattr(wavefun, "eval_wavefunction", lambda *args: field)


def test_wavefunction_writer_memory_does_not_grow_with_the_table(
        tmp_path, monkeypatch):
    # the writer holds one block of text per table: measured 1.40 MB
    # traced at 16 385 rows and 1.43 MB at 262 145, where formatting whole
    # columns and the JSON as one string peaked at 7.3 and 119 MB
    peaks = {}
    # the first run, of the smallest table the digit kernel formats, warms
    # up what a run caches, the kernel's tables among them
    for n_points in (_KERNEL_FLOOR, 16385, 262145):
        _fixed_field(monkeypatch, n_points)
        tracemalloc.start()
        try:
            _cli(tmp_path, "wavefunction", {
                "wavefunction": {"n_points": n_points}})
            peaks[n_points] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "cli" / "wavefunction.csv").read_bytes().count(
        b"\n") == 2 + 262145
    assert peaks[262145] < 3e6
    assert peaks[262145] - peaks[16385] < 2e6


def test_each_wavefunction_number_is_formatted_once(tmp_path, monkeypatch):
    # every number's digits come from a pass of the kernel or from one `%`
    # format: count the values each pass is given (the field holds no
    # value the kernel leaves to `%`, which would be counted twice)
    calls = []

    def counted(formats):
        def count(values):
            calls.append(len(values))
            return formats(values)
        return count

    for name in ("_kernel_rows", "_percent_texts"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    n_points = 2 * _CSV_BLOCK + 1
    _fixed_field(monkeypatch, n_points)
    _cli(tmp_path, "wavefunction", {"wavefunction": {"n_points": n_points}})
    # x, re and im of each point, and nine numbers around the samples: the
    # real and imaginary parts of k, lam and both tails, and theta
    assert sum(calls) == 3 * n_points + 9
    assert max(calls) == _CSV_BLOCK


# Row counts at the writer's edges: none, one, either side of the digit
# kernel's floor, below which a block's cells are joined and from which
# they are built in numpy, either side of a block, and one row past two
EDGE_ROWS = (0, 1, _KERNEL_FLOOR - 1, _KERNEL_FLOOR, _KERNEL_FLOOR + 1,
             _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2 * _CSV_BLOCK + 1)
# Keys and labels with a percent sign, quotes, a backslash, a newline and
# characters outside ASCII (and keys with a NUL, which JSON escapes)
LABEL = st.text(st.sampled_from('a,%"\\\né\u2603 '), max_size=3)
KEY = st.text(st.sampled_from('a%"\\\né\u2603\x00 '), max_size=3)


@st.composite
def _table(draw, n: int):
    """A table of ``n`` rows and the fields of its JSON records: real
    values (any bits, or spread over 40 decades), number text, pooled
    number text, labels (as text in the table, escaped in the records) and
    integers, some fields nested in an object.  The cells come from a
    generator seeded by hypothesis, so that long tables draw fast."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def values():
        bits = rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64).view(float)
        spread = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        return np.where(rng.random(n) < 0.3, bits, spread)

    labels = draw(st.lists(LABEL, min_size=1, max_size=4))
    table, fields = {}, {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(
            ("values", "text", "pooled", "labels", "integers")),
            min_size=1, max_size=5))):
        key = draw(KEY) + str(i)
        if kind == "values":
            table[key] = field = values()
        elif kind == "text":
            table[key] = field = [_fmt(v) for v in values()]
        elif kind == "pooled":
            # few patterns, as in a loop of several windings
            table[key] = field = _repeated_texts(
                rng.choice(values()[:8] if n else [], n))[0]
        elif kind == "labels":
            table[key] = rng.choice(labels, n).tolist()
            field = _Json(map(_escape, table[key]))
        else:
            table[key] = field = _Json(map(str, rng.integers(-10 ** 6, 10 ** 6,
                                                             n).tolist()))
        if draw(st.booleans()):
            fields[key] = field
        else:
            fields.setdefault(draw(KEY) + "{}", {})[key] = field
    return table, fields


def _csv_cell(column, i: int) -> str:
    """Cell ``i`` of a table column as the per-cell writer wrote it."""
    if isinstance(column, np.ndarray):
        return _fmt(column[i])
    if isinstance(column, _Pooled):
        return _decoded(column[i:i + 1])[0]
    return column[i]


@pytest.mark.parametrize("n_rows", EDGE_ROWS)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
def test_blocks_of_any_columns_match_the_per_cell_writer(tmp_path_factory,
                                                          n_rows, data):
    table, fields = data.draw(_table(n_rows))
    payload = {"records": _Records(table, **fields),
               "scalar": data.draw(st.floats())}
    out = tmp_path_factory.mktemp("writer")
    old, new = out / "old", out / "new"
    old.mkdir()
    _write_csv(old / "t.csv", "t", list(table), (
        [_csv_cell(column, i) for column in table.values()]
        for i in range(n_rows)))
    _write_json(old / "t.json", _per_cell(payload))
    _emit(str(new), "both", {"t": [table]}, payload)
    _assert_same_files(new, old, ("t.csv", "t.json"))


@pytest.mark.parametrize("n_rows", (1, _KERNEL_FLOOR, _CSV_BLOCK + 1))
@pytest.mark.parametrize("cell", ("\x00", "a\x00", "a\x00b", "\x00\x00"))
@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_a_text_cell_holding_a_nul_is_refused(tmp_path, n_rows, cell, fmt):
    # the writer drops NULs as the padding of its rows: a NUL in a text
    # cell, in any block, is refused rather than silently lost
    cells = ["x"] * (n_rows - 1) + [cell]
    table = {"label": cells, "n": _Json(map(str, range(n_rows)))}
    for payload in ({"records": _Records(table)},
                    {"records": _Records(table, n=_Json(cells))}):
        with pytest.raises(PreconditionViolation, match="NUL"):
            _emit(str(tmp_path / fmt), fmt, {"t": [table]}, payload)
