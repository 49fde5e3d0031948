"""The writers: a rendered table gives the same bytes as the raw one, and
the spliced JSON is the document ``json.dumps(..., indent=1)`` writes."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exciton_eit.output import SCHEMA_VERSION, _provenance_value, render, write_csv, write_json

floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(floats, st.integers(-2**70, 2**70), st.booleans(), st.text(max_size=8),
                    st.none())
columns = st.one_of(st.lists(floats, max_size=8),
                    st.lists(floats, max_size=8).map(np.array),
                    st.lists(st.integers(-10, 10), max_size=8).map(np.array),
                    st.lists(scalars, max_size=8),
                    st.tuples(floats, st.integers()))
values = st.one_of(scalars, columns,
                   st.lists(st.dictionaries(st.text(max_size=4), scalars, max_size=3), max_size=3),
                   st.dictionaries(st.text(max_size=4), st.one_of(scalars, columns), max_size=3))
params = st.dictionaries(st.text(min_size=1, max_size=6), st.one_of(scalars, columns), max_size=4)


def dumped(payload, params):
    """The document as one json.dumps of the fully converted values."""
    doc = {"schema_version": SCHEMA_VERSION, "parameters": _provenance_value(params),
           **{k: _provenance_value(v) for k, v in payload.items()}}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(payload=st.dictionaries(st.text(max_size=6), values, max_size=5), params=params)
def test_json_is_the_indented_dump(tmp_path_factory, payload, params):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, payload, params)
    assert path.read_text(encoding="utf-8") == dumped(payload, params)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=st.dictionaries(st.text(max_size=6), columns, max_size=4))
def test_rendered_json_matches_the_raw_columns(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    write_json(path, render(table), {"p": 1.5})
    assert path.read_text(encoding="utf-8") == dumped(table, {"p": 1.5})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(floats, st.integers(-10, 10), st.text("ab", max_size=3)),
                     min_size=0, max_size=6))
def test_rendered_csv_matches_the_raw_columns(tmp_path_factory, rows):
    table = {"x": np.array([r[0] for r in rows]), "n": [r[1] for r in rows],
             "tag": [r[2] for r in rows]}
    raw, rendered = (tmp_path_factory.mktemp("csv") / "t.csv" for _ in range(2))
    write_csv(raw, table, {"p": 1.5})
    write_csv(rendered, render(table), {"p": 1.5})
    assert rendered.read_bytes() == raw.read_bytes()


def test_render_formats_floats_only():
    assert render({"c": [0.1, -0.0, float("inf"), 3, True, "a"]}) == {
        "c": ["0.10000000000000001", "-0", "inf", 3, True, "a"]}
    assert render({"c": np.array([1e-300, 2.5])}) == {"c": ["1e-300", "2.5"]}
