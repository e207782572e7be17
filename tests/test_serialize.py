import hashlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpencil
from rpencil import serialize
from rpencil.glie import type2_bracket
from rpencil.poisson import linearized, sd_quadratic
from rpencil.quadratic import a0q, jhq
from rpencil.rmatrix import canonical_r, hecke_s, s_w
from rpencil.scalars import Scalar
from rpencil.serialize import FormatError


OBJECTS = [
    sd_quadratic(2),
    linearized(3),
    hecke_s(2),
    hecke_s(3),
    canonical_r(3),
    a0q(2),
    jhq(2),
    type2_bracket(2),
]


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: type(o).__name__)
def test_round_trip(obj):
    text = serialize.dumps(obj)
    back = serialize.loads(text)
    assert back == obj
    assert serialize.dumps(back) == text


def test_canonical_json():
    text = serialize.dumps(hecke_s(2))
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def test_non_canonical_scalar_rejected():
    data = serialize.to_data(hecke_s(2))
    key = sorted(data["payload"]["matrix"]["entries"])[0]
    data["payload"]["matrix"]["entries"][key] = "2/4"
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert "entries" in str(err.value)
    assert "2/4" in str(err.value)


def test_scalar_entry_is_never_evaluated(tmp_path):
    target = tmp_path / "pwned"
    data = serialize.to_data(hecke_s(2))
    key = sorted(data["payload"]["matrix"]["entries"])[0]
    data["payload"]["matrix"]["entries"][key] = (
        f'__import__("pathlib").Path({str(target)!r}).touch() or 1'
    )
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert "entries" in str(err.value)
    assert not target.exists()


def test_missing_field_names_path():
    data = serialize.to_data(hecke_s(2))
    del data["payload"]["dim"]
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == "$.payload.dim"


def test_unknown_kind():
    data = serialize.to_data(hecke_s(2))
    data["kind"] = "mystery"
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == "$.kind"


def test_bad_schema_version():
    data = serialize.to_data(hecke_s(2))
    data["schema"] = 99
    with pytest.raises(FormatError):
        serialize.from_data(data)


def test_invalid_json():
    with pytest.raises(FormatError):
        serialize.loads("{oops")
    # too deep for the json module, which raises RecursionError
    with pytest.raises(FormatError) as err:
        serialize.loads("[" * 200000)
    assert err.value.path == "$"


def test_matrix_entry_out_of_range():
    data = serialize.to_data(hecke_s(2))
    data["payload"]["matrix"]["entries"]["99,0"] = "1"
    with pytest.raises(FormatError):
        serialize.from_data(data)


def test_quadratic_bad_word():
    data = serialize.to_data(a0q(2))
    data["payload"]["relations"][0][0][0] = [0, 9]
    with pytest.raises(FormatError):
        serialize.from_data(data)


@pytest.mark.parametrize(
    "obj,flag", [(a0q(2), "filtered"), (jhq(2), "graded"), (a0q(2), "mixed")]
)
def test_quadratic_flag_must_match_relations(obj, flag):
    # the relations fix the flag, so a file gets one spelling of it
    data = serialize.to_data(obj)
    data["payload"]["flag"] = flag
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == "$.payload.flag"


def test_wrong_flag_echo_is_cut():
    data = serialize.to_data(a0q(2))
    data["payload"]["flag"] = "x" * 100_000
    with pytest.raises(FormatError, match=r"not 'x{60}'\.\.\. \(100000 characters\)$") as err:
        serialize.from_data(data)
    assert len(str(err.value)) < 300


@pytest.mark.parametrize("obj", [a0q(2), sd_quadratic(2), type2_bracket(2)],
                         ids=["quadratic", "poisson", "glie"])
def test_repeated_generator_names_rejected(obj):
    # with two generators named "a", two different words would print alike
    data = json.loads(serialize.dumps(obj))
    data["generators"][1] = data["generators"][0]
    with pytest.raises(FormatError, match="generator names must be distinct") as err:
        serialize.from_data(data)
    assert err.value.path == "$.generators"


@pytest.mark.parametrize("obj", [s_w(hecke_s(2)), canonical_r(2)], ids=["braid", "rmatrix"])
def test_operator_file_has_no_generators(obj):
    # an operator acts on V (x) V, whose basis has no names: generator names
    # would be read by nothing and dropped by the next dump
    data = serialize.to_data(obj)
    data["generators"] = ["a", "b"]
    with pytest.raises(FormatError, match="has no generators") as err:
        serialize.from_data(data)
    assert err.value.path == "$.generators"


@pytest.mark.parametrize("obj,where", [
    (sd_quadratic(2), ()),
    (sd_quadratic(2), ("payload",)),
    (s_w(hecke_s(2)), ("payload",)),
    (s_w(hecke_s(2)), ("payload", "matrix")),
    (canonical_r(2), ("payload",)),
    (a0q(2), ("payload",)),
    (type2_bracket(2), ("payload",)),
    (type2_bracket(2), ("payload", "i_plus")),
    (type2_bracket(2), ("payload", "i_minus")),
    (type2_bracket(2), ("payload", "matrix")),
], ids=["root", "poisson", "braid", "matrix", "rmatrix", "quadratic", "glie",
        "i_plus", "i_minus", "glie-matrix"])
def test_unknown_field_is_rejected(obj, where):
    # a field the program never reads must not load and vanish on the next dump
    data = serialize.to_data(obj)
    node = data
    for key in where:
        node = node[key]
    node["note"] = "ignored"
    with pytest.raises(FormatError, match="unknown field") as err:
        serialize.loads(json.dumps(data))
    assert err.value.path == ".".join(("$",) + where + ("note",))


def test_repeated_terms_are_summed():
    data = serialize.to_data(a0q(2))
    data["payload"]["relations"][0] += [[[0, 1], "2"], [[1, 0], "q"]]
    assert serialize.from_data(data).relations[0].terms == {(0, 1): Scalar(3)}
    data = serialize.to_data(sd_quadratic(2))
    data["payload"]["table"]["0,1"] += [[[1, 1, 0, 0], "-1"], [[0, 0, 0, 0], "0"]]
    assert not serialize.from_data(data).entry(0, 1)


def test_file_round_trip(tmp_path):
    path = tmp_path / "obj.json"
    path.write_text(serialize.dumps(jhq(2)), encoding="utf-8")
    assert serialize.load(path) == jhq(2)


@pytest.mark.parametrize("obj", [hecke_s(2), canonical_r(2)], ids=["braid", "rmatrix"])
@pytest.mark.parametrize("dim", [-2, 0])
def test_dim_below_one_rejected(obj, dim):
    # dim -2 squares to the 4 x 4 shape of the stored matrix
    data = serialize.to_data(obj)
    data["payload"]["dim"] = dim
    data["payload"]["matrix"]["nrows"] = data["payload"]["matrix"]["ncols"] = dim * dim
    if dim == 0:
        data["payload"]["matrix"]["entries"] = {}
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == "$.payload.dim"


def test_bad_splitting_is_a_format_error():
    data = serialize.to_data(type2_bracket(2))
    data["payload"]["i_plus"] = data["payload"]["i_minus"]
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == "$.payload"


def test_internal_error_is_not_a_format_error(monkeypatch):
    # only a SplittingError describes the file; any other error is a fault
    # of the program and must not be reported as a malformed file
    def broken(*args):
        raise ZeroDivisionError("internal")

    data = serialize.to_data(type2_bracket(2))
    monkeypatch.setattr(serialize, "GeneralizedLieBracket", broken)
    with pytest.raises(ZeroDivisionError):
        serialize.from_data(data)



@pytest.mark.parametrize(
    "obj,want", [(hecke_s(2), (4, 4)), (type2_bracket(2), (5, 16))], ids=["braid", "glie"]
)
def test_declared_shape_checked_before_allocating(obj, want):
    # a file of a few hundred bytes must not make the loader allocate one
    # row per declared row before it sees that the shape is wrong
    data = serialize.to_data(obj)
    data["payload"]["matrix"] = {"nrows": 2000000, "ncols": want[1], "entries": {}}
    text = json.dumps(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            serialize.loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.path == "$.payload.matrix"
    assert f"expected shape {want}, got {(2000000, want[1])}" in str(err.value)
    assert peak < 5 * 2**20


def test_braid_dim_bounded_by_entries_before_allocating():
    # a braid operator is invertible, so each of its dim^2 rows holds an
    # entry; a file that lists fewer must fail before dim^2 rows are built
    data = serialize.to_data(hecke_s(2))
    data["payload"] = {
        "dim": 300, "matrix": {"nrows": 90000, "ncols": 90000, "entries": {}}
    }
    text = json.dumps(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            serialize.loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.path == "$.payload.matrix"
    assert "needs an entry in each of its 90000 rows, got 0" in str(err.value)
    assert peak < 5 * 2**20


def test_rmatrix_dim_bounded_by_entries_before_allocating():
    # an r-matrix may have empty rows, but a file that declares far more rows
    # than it lists entries must fail before dim^2 rows are built
    data = serialize.to_data(canonical_r(2))
    data["payload"] = {
        "dim": 1000, "matrix": {"nrows": 10**6, "ncols": 10**6, "entries": {}}
    }
    text = json.dumps(data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            serialize.loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.path == "$.payload.matrix"
    assert "1000000 rows exceed both its 0 entries and 10000" in str(err.value)
    assert peak < 5 * 2**20


def test_rmatrix_rows_up_to_the_bound_may_be_empty():
    data = serialize.to_data(canonical_r(2))
    data["payload"] = {"dim": 10, "matrix": {"nrows": 100, "ncols": 100, "entries": {}}}
    assert serialize.loads(json.dumps(data)).mat.is_zero()


@pytest.mark.parametrize("key", ["entry", "kind"])
def test_repeated_json_key_is_rejected(key):
    # json.loads keeps the last of two equal keys; a file must not load as
    # something other than what one of its readers sees
    text = serialize.dumps(hecke_s(2))
    if key == "entry":
        twice, name = text.replace('"0,0":"q",', '"0,0":"q","0,0":"1",'), "0,0"
    else:
        twice, name = text.replace('"kind":"braid",', '"kind":"braid","kind":"rmatrix",'), "kind"
    assert twice != text
    with pytest.raises(FormatError) as err:
        serialize.loads(twice)
    assert err.value.path == "$"
    assert f"repeated key {name!r}" in str(err.value)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse_files():
    """spec.PARSE_FILES of the benchmark as {file name: (factory, n)}."""
    loader = importlib.util.spec_from_file_location("perfbench_spec", PERFBENCH / "spec.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return {name: (factory, n) for name, factory, n in module.PARSE_FILES}


PINNED_FILES = _parse_files()


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_canonical_files_match_benchmark_digests(name):
    # the benchmark's parse workload pins these files; a change to dumps, to
    # the load path or to a builder must show up here, not first in a
    # benchmark run.  "s_w" means s_w(hecke_s(n)), as in perfbench/child.py
    factory, n = PINNED_FILES[name]
    obj = s_w(hecke_s(n)) if factory == "s_w" else getattr(rpencil, factory)(n)
    want = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))["files"][name]
    text = serialize.dumps(obj)
    assert hashlib.sha256(text.encode()).hexdigest() == want
    assert serialize.dumps(serialize.loads(text)) == text


# -- canonical index keys ------------------------------------------------------


@pytest.mark.parametrize("spelling", [" 0", "+0", "00", "0_0", "٠", "-0", "0 "])
@pytest.mark.parametrize(
    "obj,field,canonical",
    [
        (hecke_s(2), lambda p: p["matrix"]["entries"], "0,0"),
        (type2_bracket(2), lambda p: p["i_plus"]["rows"][0], "0"),
        (sd_quadratic(2), lambda p: p["table"], "0,1"),
    ],
    ids=["matrix", "vector", "poisson"],
)
def test_index_keys_must_be_canonical(obj, field, canonical, spelling):
    # a second spelling of a present key must not overwrite it in silence
    data = serialize.to_data(obj)
    entries = field(data["payload"])
    bad = canonical.replace("0", spelling, 1)
    entries[bad] = entries[canonical]
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path.endswith(f"[{bad}]")


def test_braid_entry_count_cannot_be_padded():
    # a second spelling of "0,0" used to count toward the dim^2 rows that an
    # invertible operator must fill, so row 3 could be left empty
    data = serialize.to_data(hecke_s(2))
    data["payload"]["matrix"]["entries"] = {"0,0": "1", "1,1": "1", "2,2": "1", "00,0": "1"}
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == "$.payload.matrix.entries[00,0]"


# -- per-call scalar interning -------------------------------------------------


def _scalar_leaves(tree):
    if isinstance(tree, dict):
        for v in tree.values():
            yield from _scalar_leaves(v)
    elif isinstance(tree, list):
        for v in tree:
            yield from _scalar_leaves(v)
    elif isinstance(tree, str):
        yield tree


def test_each_distinct_scalar_parsed_once_per_load(monkeypatch):
    text = serialize.dumps(type2_bracket(3))
    leaves = list(_scalar_leaves(json.loads(text)["payload"]))
    assert (len(leaves), len(set(leaves))) == (203, 10)
    parse, calls = Scalar.parse_canonical, []
    monkeypatch.setattr(
        Scalar, "parse_canonical", staticmethod(lambda t: calls.append(t) or parse(t))
    )
    serialize.loads(text)
    assert sorted(calls) == sorted(set(leaves))
    # the memo lives for one call: a second load parses again
    serialize.loads(text)
    assert len(calls) == 20


def test_each_distinct_scalar_printed_once_per_dump(monkeypatch):
    obj = type2_bracket(3)
    want = serialize.dumps(obj)
    show, calls = Scalar.__str__, []
    monkeypatch.setattr(Scalar, "__str__", lambda c: calls.append(c) or show(c))
    assert serialize.dumps(obj) == want
    assert len(calls) == len(set(_scalar_leaves(json.loads(want)["payload"]))) == 10


def test_repeated_bad_scalar_reports_first_occurrence():
    data = serialize.to_data(hecke_s(2))
    entries = data["payload"]["matrix"]["entries"]
    first, second = list(entries)[:2]
    entries[first] = entries[second] = "2/4"
    with pytest.raises(FormatError) as err:
        serialize.from_data(data)
    assert err.value.path == f"$.payload.matrix.entries[{first}]"
    assert "2/4" in str(err.value)


def test_list_as_scalar_is_a_format_error():
    # a list is unhashable: the type check must come before the memo lookup
    data = serialize.to_data(hecke_s(2))
    key = next(iter(data["payload"]["matrix"]["entries"]))
    data["payload"]["matrix"]["entries"][key] = ["1"]
    with pytest.raises(FormatError, match="expected a scalar string, got list"):
        serialize.from_data(data)


# -- fuzzing from_data ---------------------------------------------------------


_TEXT = st.text(alphabet="0123456789,-+ _qhlam*/()", max_size=6) | st.sampled_from(
    ["0,0", "0", "1", "-1", "q", "1/q", "2/4", "٠", "00"]
)
_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(-2, 20)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT
)
_JSON = st.recursive(
    _LEAF,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_TEXT, kids, max_size=3),
    max_leaves=10,
)
_FILE = st.fixed_dictionaries({
    "schema": st.just(1) | _JSON,
    "kind": st.sampled_from(serialize.KINDS) | _JSON,
    "generators": st.lists(st.sampled_from(["x0", "x1", "x2", "x3"]), max_size=4) | _JSON,
    "payload": _JSON,
})
_FUZZ_OBJECTS = [sd_quadratic(2), hecke_s(2), canonical_r(2), a0q(2), jhq(2), type2_bracket(2)]


def _nodes(tree, path=()):
    """The path of every value under tree, in document order."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


@st.composite
def _mutated_file(draw):
    """A canonical file with one value, or one object key, replaced."""
    data = json.loads(serialize.dumps(draw(st.sampled_from(_FUZZ_OBJECTS))))
    path = draw(st.sampled_from(list(_nodes(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if isinstance(parent, dict) and draw(st.booleans()):
        parent[draw(_TEXT)] = parent.pop(last)
    else:
        parent[last] = draw(_JSON)
    return data


@st.composite
def _edited_text(draw):
    """A canonical file's text with one to three characters replaced,
    inserted or deleted."""
    text = serialize.dumps(draw(st.sampled_from(_FUZZ_OBJECTS)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text) - 1))
        new = draw(st.sampled_from(["", *'{}[]",:-/*+0129qhlam x\n\x00\u0660']))
        cut = draw(st.integers(0, 1))
        text = text[:pos] + new + text[pos + cut:]
    return text


def _check_only_format_errors(text):
    """loads either raises a FormatError of one line under 300 bytes, or
    gives an object whose canonical text dumps reads back unchanged."""
    try:
        obj = serialize.loads(text)
    except FormatError as err:
        message = str(err)
        assert "\n" not in message and len(message.encode()) < 300
        return
    text = serialize.dumps(obj)
    assert serialize.dumps(serialize.loads(text)) == text


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@_FUZZ
@given(_JSON | _FILE)
def test_fuzz_random_trees(data):
    _check_only_format_errors(json.dumps(data))


@_FUZZ
@given(_mutated_file())
def test_fuzz_mutated_canonical_files(data):
    _check_only_format_errors(json.dumps(data))


@_FUZZ
@given(_edited_text())
def test_fuzz_edited_canonical_text(text):
    _check_only_format_errors(text)
