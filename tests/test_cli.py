"""Round-trips, determinism, exit codes, and SVG well-formedness."""

import hashlib
import json
import random
import xml.dom.minidom
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsecfan import Calibration, QuantumFan, cli
from qsecfan.cli import _COMMANDS, _json_text, _sample_census, build_parser, main

from conftest import census_classes

QEX_DOC = {
    "calibration": {
        "d": 2, "n": 4,
        "columns": [
            [{"a": "1"}, {"a": "0"}],
            [{"a": "0"}, {"a": "1"}],
            [{"a": "0", "b": "-1", "m": 2}, {"a": "-1"}],
            [{"a": "-1"}, {"a": "0", "b": "-1", "m": 2}],
        ],
        "virtual": [],
    },
    "chi": [{"a": "1"}, {"a": "1"}],
    "b": [{"a": "1"}, {"a": "1"}, {"a": "1"}, {"a": "1"}],
    "cone": [1, 2],
}


@pytest.fixture
def doc_path(tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(QEX_DOC))
    return str(p)


def run(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out


def test_fan_round_trip(doc_path, tmp_path):
    code, out = run(["fan", "--input", doc_path], tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    cal = Calibration.from_json(QEX_DOC["calibration"])
    f = QuantumFan.from_json(cal, data["fan"])
    assert f.to_json() == data["fan"]
    assert sorted(map(sorted, data["fan"]["max_cones"])) == [
        [1, 2], [1, 4], [2, 3], [3, 4]]


def test_gale_and_chamber(doc_path, tmp_path):
    code, out = run(["gale", "--input", doc_path], tmp_path)
    assert code == 0
    assert "generators" in json.loads(out.read_text())
    code, out = run(["chamber", "--input", doc_path], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["chamber"]["rep_comb"]["virtual"] == []


def test_chambers_deterministic(doc_path, tmp_path):
    _, out1 = run(["chambers", "--input", doc_path, "--samples", "25", "--seed", "3"],
                  tmp_path, "a.json")
    _, out2 = run(["chambers", "--input", doc_path, "--samples", "25", "--seed", "3"],
                  tmp_path, "b.json")
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert len(data["chambers"]) == 3
    assert data["sample_census"]["match"]


# sha256 of `chambers --samples 300 --seed 11` on qex and fig5 with the
# heavy-tailed census weights: both match, fig5 with all 11 classes (the
# uniform weights the census drew before reached only 9 of them)
SAMPLED_CHAMBERS_SHA256 = {
    "qex": "49169ce4e25408733071fddc6a99975d96da6fcc6f05b8477b68f5d417a3652b",
    "fig5": "b34f6ab40a0edb64b83f844b47d913e373ad095e1a0004a3727d71ce004b920c",
}


def test_chambers_samples_output_is_unchanged(qex, fig5, tmp_path):
    for name, cal in (("qex", qex), ("fig5", fig5)):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps({"calibration": cal.to_json()}))
        code, out = run(["chambers", "--input", str(src), "--samples", "300", "--seed", "11"],
                        tmp_path, f"{name}.out")
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLED_CHAMBERS_SHA256[name]


def test_sample_census_reaches_thin_chambers(corank4):
    """The fixed (3, 7) instance has 76 chambers, many of them thin; 2000
    heavy-tailed samples reach every one (uniform weights reached 56)."""
    census = _sample_census(corank4, SimpleNamespace(chambers=[None] * 76), 2000, 0)
    assert census == {"samples": 2000, "distinct_classes": 76, "chambers": 76, "match": True}


def test_chambers_rejects_a_negative_sample_count(tmp_path, capsys):
    """--samples -3 once exited 0 with a census of -3 samples and no class;
    --samples 0 still asks for no census."""
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"calibration": {
        "d": 2, "n": 4, "columns": [["1", "0"], ["0", "1"], ["-1", "-1"], ["1", "2"]],
        "virtual": []}}))
    assert main(["chambers", "--input", str(src), "--samples", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: --samples must be nonnegative, got -3\n"
    code, out = run(["chambers", "--input", str(src), "--samples", "0"], tmp_path)
    assert code == 0 and "sample_census" not in json.loads(out.read_text())


def test_wall_cross_and_cobordism(doc_path, tmp_path):
    code, out = run(["wall-cross", "--input", doc_path,
                     "--path", "1,1,0,1;0,0,2,0"], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["wall"]["type"] == "divisorial"
    assert rep["index"] == [1, 2]
    code, out = run(["cobordism", "--input", doc_path,
                     "--path", "1,1,1,1;1,1,-2,0"], tmp_path)
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert len(rep["crossings"]) == 2


def test_project_link_and_stabilizers(doc_path, tmp_path):
    code, out = run(["project-link", "--input", doc_path], tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["certificate"] is not None
    assert data["classification"] == "projective-linkable"
    assert data["path"]["found"]
    code, out = run(["stabilizers", "--input", doc_path], tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["isomorphic"]


def svg_ok(text):
    dom = xml.dom.minidom.parseString(text)
    root = dom.documentElement
    assert root.tagName == "svg"
    assert root.getAttribute("version") == "1.1"
    assert root.getAttribute("viewBox")
    return dom


def test_plots_are_well_formed(doc_path, tmp_path):
    for kind in ("polytope", "fan", "secondary"):
        code, out = run(["plot", "--kind", kind, "--input", doc_path], tmp_path,
                        f"{kind}.svg")
        assert code == 0
        svg_ok(out.read_text())


def test_secondary_plot_rejects_a_mark_of_the_wrong_length(doc_path, tmp_path, capsys):
    """A chi mark too short once ended in an IndexError traceback, and one too
    long was drawn from its first two entries."""
    for chi in (["1"], ["1", "2", "3"]):
        p = tmp_path / "mark.json"
        p.write_text(json.dumps(dict(QEX_DOC, chi=chi)))
        assert main(["plot", "--kind", "secondary", "--input", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: chi of length {len(chi)} for a Gale cone in R^2\n"


def test_fan_svg_dashes_virtual(tmp_path):
    doc = {
        "calibration": {
            "d": 2, "n": 4,
            "columns": [["1", "0"], ["0", "1"], ["-1", "-1"], ["1", "1"]],
            "virtual": [],
        },
        # constraint 4 is far out, so generator 4 is virtual here
        "b": ["1", "1", "1", "9"],
    }
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    code, out = run(["plot", "--kind", "fan", "--input", str(p)], tmp_path, "f.svg")
    assert code == 0
    text = out.read_text()
    svg_ok(text)
    assert "stroke-dasharray" in text


def test_exit_code_invalid_input(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"nope\": 1}")
    assert main(["fan", "--input", str(p)]) == 2
    p2 = tmp_path / "notjson.json"
    p2.write_text("not json at all")
    assert main(["fan", "--input", str(p2)]) == 2


def test_exit_code_degenerate(tmp_path):
    doc = dict(QEX_DOC)
    doc["b"] = [{"a": "0"}, {"a": "0"}, {"a": "0"}, {"a": "0"}]
    p = tmp_path / "deg.json"
    p.write_text(json.dumps(doc))
    assert main(["fan", "--input", str(p)]) == 3
    # a path whose endpoint sits on a wall
    p.write_text(json.dumps(QEX_DOC))
    assert main(["wall-cross", "--input", str(p), "--path", "0,0,1,1;1,1,0,0"]) == 3


def test_svg_format_of_chambers_and_fan_prints_the_plot(doc_path, capsys):
    """chambers and fan with --format svg print the secondary-fan and the
    fan plot, whatever --kind says."""
    def printed(*args):
        assert main(list(args) + ["--input", doc_path]) == 0
        return capsys.readouterr().out

    secondary = printed("plot", "--kind", "secondary")
    fan = printed("plot", "--kind", "fan")
    svg_ok(secondary)
    svg_ok(fan)
    assert secondary != fan
    assert printed("chambers", "--format", "svg") == secondary
    assert printed("fan", "--format", "svg", "--kind", "polytope") == fan


@pytest.mark.parametrize("cone", [[0, 1], [1, 9]])
def test_stabilizers_report_a_cone_index_outside_1_to_n_as_invalid_input(
        cone, tmp_path, capsys):
    doc = {"calibration": {"d": 2, "n": 4, "virtual": [],
                           "columns": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]]},
           "cone": cone}
    p = tmp_path / "square.json"
    p.write_text(json.dumps(doc))
    assert main(["stabilizers", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:") and "1..4" in captured.err


@pytest.mark.parametrize("cone", [[True, 2], [1, False], [1.0, 2], ["1", 2], [None, 2], [[1], 2],
                                  {"1": 1}, "12", 1])
def test_stabilizers_need_a_list_of_integer_cone_indices(cone, tmp_path, capsys):
    """[true, 2] once exited 0 and printed "cone": [true, 2], and [1.0, 2]
    was reported as "tuple indices must be integers or slices, not float"."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"calibration": SQUARE_PLUS, "cone": cone}))
    assert main(["stabilizers", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: cone must be a list of integer indices\n"
    p.write_text(json.dumps({"calibration": SQUARE_PLUS, "cone": [1, 2]}))
    code, out = run(["stabilizers", "--input", str(p)], tmp_path)
    assert code == 0 and json.loads(out.read_text())["cone"] == [1, 2]


def test_a_radicand_above_the_bound_is_invalid_input(tmp_path, capsys):
    """Factoring m = 10^12 + 39 by trial division once took 0.18 s; any
    radicand above 2^32 is now refused before it is factored."""
    p = tmp_path / "in.json"
    for m, code in ((10**12 + 39, 2), (2**32 + 15, 2), (2**32, 0), (2, 0)):
        column = [{"a": 1, "b": 1, "m": m}, 1]
        p.write_text(json.dumps({"calibration": dict(SQUARE_PLUS, columns=[
            [1, 0], [0, 1], [-1, -1], column])}))
        assert main(["gale", "--input", str(p)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == \
                f"invalid input: radicand must lie in 1..4294967296, got {m}\n"


@pytest.mark.parametrize("entry", ["1/0", "3/00", {"a": "1/0"}, {"a": 1, "b": "1/0", "m": 2}])
def test_a_zero_denominator_is_invalid_input(tmp_path, capsys, entry):
    """Each once exited 1 with a ZeroDivisionError traceback."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"calibration": dict(SQUARE_PLUS, columns=[
        [1, 0], [0, 1], [-1, -1], [entry, 1]])}))
    assert main(["gale", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: zero denominator in a scalar encoding: {entry!r}\n"


@pytest.mark.parametrize("entry, code", [
    ({"a": 1, "b": 0, "m": "x"}, 2), ({"a": 1, "m": -5}, 2), ({"a": 1, "b": 1, "m": "2"}, 2),
    ({"a": 1, "m": 0}, 2), ({"a": 1, "b": "0", "m": [1]}, 2), ({"a": 1, "m": 10**20}, 2),
    ({"a": 1, "b": 0, "m": 2}, 0), ({"a": 1, "m": None}, 0), ({"a": 1, "b": 1, "m": 2}, 0)])
def test_a_radicand_is_checked_whatever_b_is(tmp_path, capsys, entry, code):
    """A radicand is absent, null or a JSON integer in 1..2^32: the first
    six once read as 1, or as 1 + sqrt(2) for the string "2"."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"calibration": dict(SQUARE_PLUS, columns=[
        [1, 0], [0, 1], [-1, -1], [entry, 1]])}))
    assert main(["gale", "--input", str(p)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == \
            f"invalid input: radicand must lie in 1..4294967296, got {entry['m']!r}\n"


def test_plot_of_an_unbounded_polytope_is_not_admissible(tmp_path, capsys):
    """Columns in a closed half-plane give an unbounded P_b, which is not
    the hull of its vertices: plot exits 3 as fan does, and draws nothing."""
    doc = {"calibration": {"d": 2, "n": 5, "virtual": [],
                           "columns": [["1", "0"], ["0", "1"], ["1", "1"], ["-1", "2"],
                                       ["2", "1"]]},
           "b": ["0", "1", "1", "3", "0"]}
    p = tmp_path / "half_plane.json"
    p.write_text(json.dumps(doc))
    assert main(["fan", "--input", str(p)]) == 3
    capsys.readouterr()
    assert main(["plot", "--kind", "polytope", "--input", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "unbounded" in captured.err


def test_gale_and_chambers_with_n_minus_d_4(tmp_path, capsys):
    """Both once exited 2 with "implemented for n-d <= 3"; the 21 chambers
    are what a 10^4-sample census counts."""
    doc = {"calibration": {"d": 2, "n": 6, "virtual": [],
                           "columns": [["1", "0"], ["0", "1"], ["-1", "-1"], ["1", "2"],
                                       ["2", "-1"], ["-1", "3"]]}}
    p = tmp_path / "corank4.json"
    p.write_text(json.dumps(doc))
    code, out = run(["gale", "--input", str(p)], tmp_path, "gale.json")
    assert code == 0
    gale = json.loads(out.read_text())
    assert len(gale["generators"]) == 6 and len(gale["generators"][0]) == 4
    code, out = run(["chambers", "--input", str(p)], tmp_path, "chambers.json")
    assert code == 0
    assert len(json.loads(out.read_text())["chambers"]) == 21
    assert capsys.readouterr().err == ""
    cal = Calibration.from_json(doc["calibration"])
    assert census_classes(cal, random.Random(4), 10000) == 21


SQUARE_PLUS = {"d": 2, "n": 4, "columns": [[1, 0], [0, 1], [-1, -1], [1, 1]]}


@pytest.mark.parametrize("change", [
    {"d": 2.7}, {"d": 2.0}, {"n": 4.0}, {"n": True, "d": True, "columns": [[1]]},
    {"virtual": [4.0]}, {"virtual": [True]},
    {"columns": [[1, 0], [0, 1], [-1, -1], [{"a": 1.0}, 1]]},
    {"columns": [[True, 0], [0, 1], [-1, -1], [1, 1]]},
    {"columns": [[1, 0], [0, 1], [-1, -1], [{"a": 1, "b": 1, "m": 2.0}, 1]]},
])
def test_floats_and_booleans_in_a_calibration_are_invalid_input(change, tmp_path, capsys):
    """d = 2.7 once ran gale as d = 2 and exited 0; 1.0 and true read 1."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"calibration": dict(SQUARE_PLUS, **change)}))
    assert main(["gale", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid input: ")
    p.write_text(json.dumps({"calibration": SQUARE_PLUS}))
    assert main(["gale", "--input", str(p)]) == 0


@pytest.mark.parametrize("change", [
    {"d": "2"}, {"n": "4"}, {"d": "2", "n": "4"}, {"d": None},
    {"virtual": ["4"]}, {"virtual": [4, "3"]}, {"virtual": [None]},
])
def test_text_where_a_calibration_needs_integers_is_invalid_input(change, tmp_path, capsys):
    """{"d": "2", "n": "4"} once ran gale with exit 0, and a virtual index
    "4" was reported as out of range."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"calibration": dict(SQUARE_PLUS, **change)}))
    assert main(["gale", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: d, n and the virtual indices must be integers\n"


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.integers(min_value=-2**200, max_value=2**200), st.text())
json_documents = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


@given(json_documents)
def test_the_writer_matches_json_dumps(doc):
    """Escapes, non-ASCII text, empty containers, tuples and big integers
    are written as json.dumps writes them."""
    assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


COMMAND_ARGS = {"wall-cross": ["--path", "1,1,0,1;0,0,2,0"],
                "cobordism": ["--path", "1,1,1,1;1,1,-2,0"],
                "chambers": ["--samples", "25", "--seed", "3"]}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_command_writes_the_bytes_of_json_dumps(command, doc_path, tmp_path):
    args = [command, "--input", doc_path] + COMMAND_ARGS.get(command, [])
    payload = _COMMANDS[command](QEX_DOC, build_parser().parse_args(args))
    code, out = run(args, tmp_path)
    assert code == 0
    assert out.read_text() == json.dumps(payload, sort_keys=True, indent=2)


def test_the_writer_rejects_what_json_cannot_write():
    for bad in (1.5, {1: "x"}, [object()]):
        with pytest.raises(TypeError):
            _json_text(bad)


def test_main_builds_its_parser_once(doc_path, tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert run(["gale", "--input", doc_path], tmp_path)[0] == 0
    assert run(["fan", "--input", doc_path], tmp_path)[0] == 0
    assert builds == [1]


@pytest.mark.parametrize("command, change, kind", [
    ("fan", {"b": "1111"}, "str"),
    ("fan", {"b": {"1": 1, "2": 2, "3": 3, "4": 4}}, "dict"),
    ("chamber", {"chi": "11"}, "str"),
    ("project-link", {"b": "1111"}, "str"),
    ("cobordism", {"path": {"beta": "11", "alpha": [1, 0]}}, "str"),
    ("wall-cross", {"path": {"beta": [1, 1], "alpha": {"1": 1, "0": 0}}}, "dict"),
])
def test_a_vector_that_is_no_json_array_is_invalid_input(command, change, kind, tmp_path, capsys):
    """"b": "1111" once ran fan with b = (1, 1, 1, 1), and an object ran
    with its keys as the entries; the same went for chi and the path."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps(dict(QEX_DOC, **change)))
    assert main([command, "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: a vector must be a JSON array, not {kind}\n"


@pytest.mark.parametrize("change", [
    {"columns": [[1, 0], [0, 1], [-1, -1], "11"]},
    {"columns": [[1, 0], {"0": 0, "1": 1}, [-1, -1], [1, 1]]},
    {"columns": {"10": 0, "01": 0, "11": 0, "12": 0}},
    {"virtual": ""},
    {"virtual": {}},
])
def test_a_calibration_part_that_is_no_json_array_is_invalid_input(change, tmp_path, capsys):
    """A column "11" once ran gale as (1, 1), and "virtual": "" as no
    virtual generators."""
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"calibration": dict(SQUARE_PLUS, **change)}))
    assert main(["gale", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid input: columns, each column and virtual must be JSON arrays\n"
