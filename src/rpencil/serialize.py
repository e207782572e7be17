"""JSON presentation format for the algebraic objects in this package.

Every scalar is stored in its canonical string form; parsing rejects
non-canonical spellings, so serialization round-trips are exact and files
are byte-stable.  Index keys ("3", "0,2") are canonical too: each part must
equal ``str(int(part))``, so " 0", "+0", "00" and "٠" are rejected and one
entry has one spelling.  Likewise a quadratic file's flag must be the one
its relations determine.  A file holds only the fields its kind defines:
an unknown field, or generators on a ``braid`` or ``rmatrix`` file, is
rejected rather than dropped.  Schema violations raise FormatError carrying
the path of the offending field.  A key from the input appears in that path
as it is when it has at most 60 characters and needs no escape, and
otherwise as its ``echo``, so every message is one short line; the path is
built only for the error.

A file repeats a few distinct scalars many times.  Each call of
``from_data`` keeps a ``{text: Scalar}`` dict, so it parses each distinct
text once; each call of ``to_data`` keeps a ``{Scalar: text}`` dict, so it
prints each distinct scalar once.  Both dicts live for that call only.  A
text that fails to parse is never stored, so its first occurrence raises.
"""

from __future__ import annotations

import json
from collections import Counter

from .commpoly import Poly
from .freealg import FreeElement
from .glie import GeneralizedLieBracket, SplittingError
from .linalg import Mat, SubspaceBasis
from .poisson import PoissonStructure
from .quadratic import QuadraticPresentation
from .rmatrix import BraidOperator, RMatrixElement
from .scalars import Scalar, ScalarError, echo

SCHEMA_VERSION = 1

KINDS = ("poisson", "braid", "rmatrix", "quadratic", "glie")

# rows a matrix may declare beyond the entries its file lists
MAX_SPARSE_ROWS = 10_000

_PAYLOAD_FIELDS = {"poisson": ("table",), "braid": ("dim", "matrix"), "rmatrix": ("dim", "matrix"),
                   "quadratic": ("flag", "relations"), "glie": ("i_plus", "i_minus", "matrix")}


class FormatError(Exception):
    """A malformed presentation file; the message names the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# -- scalar / matrix / vector helpers ---------------------------------------


def _scalar_out(c: Scalar, texts: dict) -> str:
    # equal Scalars print alike, since their representation is canonical
    text = texts.get(c)
    if text is None:
        text = texts[c] = str(c)
    return text

def _scalar_in(text, path: str, key, scalars: dict) -> Scalar:
    """The scalar at ``path[key]``."""
    # the type check comes first: a list is unhashable
    if not isinstance(text, str):
        raise FormatError(_at(path, key), f"expected a scalar string, got {type(text).__name__}")
    c = scalars.get(text)
    if c is None:
        try:
            c = scalars[text] = Scalar.parse_canonical(text)
        except ScalarError as exc:
            raise FormatError(_at(path, key), str(exc)) from None
    return c


def _segment(key) -> str:
    """A key from the input as a path segment: the key itself if ``echo``
    would only quote it, else its echo, cut and with control characters
    escaped, so a message stays one short line."""
    key = str(key)
    text = echo(key)
    return key if text[1:-1] == key else text


def _at(path: str, key) -> str:
    """The path ``path[key]``; built only for an error, as it echoes the key."""
    return f"{path}[{_segment(key)}]"


def _indices(key, count: int, path: str, message: str) -> tuple:
    """The count comma-separated integers of the index key at ``path[key]``,
    each spelled canonically."""
    parts = key.split(",") if isinstance(key, str) else []
    try:
        out = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(_at(path, key), message) from None
    if len(out) != count or any(str(i) != p for i, p in zip(out, parts)):
        raise FormatError(_at(path, key), message)
    return out


def _mat_out(m: Mat, texts: dict) -> dict:
    entries = {}
    for i, row in enumerate(m.rows):
        for j, v in sorted(row.items()):
            entries[f"{i},{j}"] = _scalar_out(v, texts)
    return {"nrows": m.nrows, "ncols": m.ncols, "entries": entries}

def _mat_in(data, path: str, shape: tuple, scalars: dict, invertible: bool = False) -> Mat:
    """A matrix whose declared shape must equal shape, checked before allocating.

    An invertible matrix has an entry in every row, so its declared rows are
    bounded by the entries the file lists; any other matrix may declare more
    rows than entries only up to MAX_SPARSE_ROWS.
    """
    nrows = _expect_int(data, "nrows", path)
    ncols = _expect_int(data, "ncols", path)
    _only_fields(data, ("nrows", "ncols", "entries"), path)
    if (nrows, ncols) != shape:
        raise FormatError(path, f"expected shape {shape}, got {(nrows, ncols)}")
    entries = _expect(data, "entries", dict, path)
    if invertible and len(entries) < nrows:
        raise FormatError(path, f"needs an entry in each of its {nrows} rows, got {len(entries)}")
    if nrows > max(len(entries), MAX_SPARSE_ROWS):
        limit = f"its {len(entries)} entries and {MAX_SPARSE_ROWS}"
        raise FormatError(path, f"{nrows} rows exceed both {limit}")
    m = Mat(nrows, ncols)
    where = f"{path}.entries"
    for key, text in entries.items():
        i, j = _indices(key, 2, where, "entry keys must look like 'row,col'")
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise FormatError(_at(where, key), "entry out of range")
        m.set(i, j, _scalar_in(text, where, key, scalars))
    return m


def _vec_out(vec: dict, texts: dict) -> dict:
    return {str(i): _scalar_out(v, texts) for i, v in sorted(vec.items())}

def _vec_in(data, ambient: int, path: str, scalars: dict) -> dict:
    out = {}
    for key, text in _expect_dict(data, path).items():
        (i,) = _indices(key, 1, path, "vector keys must be integers")
        if not 0 <= i < ambient:
            raise FormatError(_at(path, key), "coordinate out of range")
        out[i] = _scalar_in(text, path, key, scalars)
    return out


def _basis_out(s: SubspaceBasis, texts: dict) -> dict:
    return {"ambient_dim": s.ambient_dim, "rows": [_vec_out(r, texts) for r in s.rows]}

def _basis_in(data, path: str, scalars: dict) -> SubspaceBasis:
    ambient = _expect_int(data, "ambient_dim", path)
    _only_fields(data, ("ambient_dim", "rows"), path)
    rows = _expect(data, "rows", list, path)
    return SubspaceBasis(
        ambient,
        [_vec_in(r, ambient, f"{path}.rows[{k}]", scalars) for k, r in enumerate(rows)],
    )


# -- free / commutative polynomial helpers -----------------------------------


def _free_out(f: FreeElement, texts: dict) -> list:
    return [
        [list(w), _scalar_out(c, texts)]
        for w, c in sorted(f.terms.items(), key=lambda t: (len(t[0]), t[0]))
    ]

def _free_in(data, generators, path: str, scalars: dict) -> FreeElement:
    n = len(generators)
    # type(...) is int: JSON true and false load as the bools True and False
    return FreeElement(generators, _terms_in(
        data, path, scalars, "word", "word must be a list of generator indices",
        lambda w: isinstance(w, list) and all(type(g) is int and 0 <= g < n for g in w),
    ))


def _poly_out(p: Poly, texts: dict) -> list:
    return [[list(e), _scalar_out(c, texts)] for e, c in sorted(p.terms.items())]

def _poly_in(data, generators, path: str, scalars: dict) -> Poly:
    n = len(generators)
    return Poly(generators, _terms_in(
        data, path, scalars, "exponents", f"exponent vector must have {n} nonnegative entries",
        # not bool, as in _free_in
        lambda e: isinstance(e, list) and len(e) == n and all(type(x) is int and x >= 0 for x in e),
    ))


def _terms_in(data, path: str, scalars: dict, label: str, bad_key: str, key_ok) -> dict:
    """[key, coefficient] pairs as one terms dict; a repeated key's coefficients
    are summed, and the element's constructor drops those that sum to zero."""
    terms: dict = {}
    for k, item in enumerate(_expect_list(data, path)):
        if not (isinstance(item, list) and len(item) == 2):
            raise FormatError(_at(path, k), f"expected [{label}, coefficient] pairs")
        key, text = item
        if not key_ok(key):
            raise FormatError(_at(path, k), bad_key)
        key, c = tuple(key), _scalar_in(text, path, k, scalars)
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return terms


# -- schema plumbing ---------------------------------------------------------


def _expect(data, key, typ, path):
    if not isinstance(data, dict):
        raise FormatError(path, f"expected an object, got {type(data).__name__}")
    if key not in data:
        raise FormatError(f"{path}.{key}", "missing field")
    value = data[key]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise FormatError(f"{path}.{key}", f"expected {typ.__name__}")
    return value

def _only_fields(data: dict, fields: tuple, path: str) -> None:
    for key in data:
        if key not in fields:
            raise FormatError(f"{path}.{_segment(key)}", "unknown field")

def _expect_int(data, key, path):
    return _expect(data, key, int, path)

def _expect_dict(data, path):
    if not isinstance(data, dict):
        raise FormatError(path, f"expected an object, got {type(data).__name__}")
    return data

def _expect_list(data, path):
    if not isinstance(data, list):
        raise FormatError(path, f"expected a list, got {type(data).__name__}")
    return data


# -- top level ---------------------------------------------------------------


def to_data(obj) -> dict:
    """The JSON-ready dictionary for any serializable object."""
    texts: dict = {}  # Scalar -> its canonical text, for this call only
    if isinstance(obj, PoissonStructure):
        kind = "poisson"
        payload = {
            "table": {
                f"{i},{j}": _poly_out(p, texts) for (i, j), p in sorted(obj.table.items())
            }
        }
        generators = list(obj.generators)
    elif isinstance(obj, BraidOperator):
        kind = "braid"
        payload = {"dim": obj.dim, "matrix": _mat_out(obj.mat, texts)}
        generators = []
    elif isinstance(obj, RMatrixElement):
        kind = "rmatrix"
        payload = {"dim": obj.dim, "matrix": _mat_out(obj.mat, texts)}
        generators = []
    elif isinstance(obj, QuadraticPresentation):
        kind = "quadratic"
        payload = {
            "flag": obj.flag,
            "relations": [_free_out(r, texts) for r in obj.relations],
        }
        generators = list(obj.generators)
    elif isinstance(obj, GeneralizedLieBracket):
        kind = "glie"
        payload = {
            "i_plus": _basis_out(obj.i_plus, texts),
            "i_minus": _basis_out(obj.i_minus, texts),
            "matrix": _mat_out(obj.matrix, texts),
        }
        generators = list(obj.generators)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return {"schema": SCHEMA_VERSION, "kind": kind, "generators": generators, "payload": payload}


def from_data(data):
    """Rebuild an object from its JSON dictionary, validating the schema."""
    root = _expect_dict(data, "$")
    _only_fields(root, ("schema", "kind", "generators", "payload"), "$")
    version = _expect_int(root, "schema", "$")
    if version != SCHEMA_VERSION:
        raise FormatError("$.schema", f"unsupported schema version {version}")
    kind = _expect(root, "kind", str, "$")
    if kind not in KINDS:
        raise FormatError("$.kind", f"unknown kind {echo(kind)}; expected one of {KINDS}")
    raw_gens = _expect(root, "generators", list, "$")
    if not all(isinstance(g, str) for g in raw_gens):
        raise FormatError("$.generators", "generator names must be strings")
    if len(set(raw_gens)) < len(raw_gens):
        raise FormatError("$.generators", "generator names must be distinct")
    generators = tuple(raw_gens)
    payload = _expect(root, "payload", dict, "$")
    path = "$.payload"
    _only_fields(payload, _PAYLOAD_FIELDS[kind], path)
    scalars: dict = {}  # text -> its parsed Scalar, for this call only

    if kind == "poisson":
        table = {}
        N = len(generators)
        where = f"{path}.table"
        for key, val in _expect(payload, "table", dict, path).items():
            i, j = _indices(key, 2, where, "table keys must look like 'i,j'")
            if not (0 <= i < j < N):
                raise FormatError(_at(where, key), "table keys must satisfy 0 <= i < j < dim")
            # a canonical key below dim is short, so it needs no echo
            table[(i, j)] = _poly_in(val, generators, f"{where}[{key}]", scalars)
        return PoissonStructure(generators, table)

    if kind in ("braid", "rmatrix"):
        if generators:
            raise FormatError("$.generators", f"a {kind} file has no generators")
        dim = _expect_int(payload, "dim", path)
        if dim < 1:
            raise FormatError(f"{path}.dim", "must be at least 1")
        matrix = _expect(payload, "matrix", dict, path)
        shape = (dim * dim, dim * dim)
        mat = _mat_in(matrix, f"{path}.matrix", shape, scalars, invertible=kind == "braid")
        return BraidOperator(dim, mat) if kind == "braid" else RMatrixElement(dim, mat)

    if kind == "quadratic":
        flag = _expect(payload, "flag", str, path)
        rels = _expect(payload, "relations", list, path)
        relations = tuple(
            _free_in(r, generators, f"{path}.relations[{k}]", scalars) for k, r in enumerate(rels)
        )
        try:
            pres = QuadraticPresentation(generators, relations)
        except ValueError as exc:
            raise FormatError(f"{path}.relations", str(exc)) from None
        if flag != pres.flag:
            raise FormatError(f"{path}.flag", f"relations are {pres.flag}, not {echo(flag)}")
        return pres

    i_plus = _basis_in(_expect(payload, "i_plus", dict, path), f"{path}.i_plus", scalars)
    i_minus = _basis_in(_expect(payload, "i_minus", dict, path), f"{path}.i_minus", scalars)
    N = len(generators)
    mat = _mat_in(
        _expect(payload, "matrix", dict, path), f"{path}.matrix", (N + 1, N * N), scalars
    )
    try:
        return GeneralizedLieBracket(generators, i_plus, i_minus, mat)
    except SplittingError as exc:
        raise FormatError(path, str(exc)) from None


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, stable separators, trailing newline."""
    return json.dumps(to_data(obj), sort_keys=True, separators=(",", ":")) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key would silently keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise FormatError("$", f"repeated key {echo(key)}")
    return obj


def loads(text: str):
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("$", "invalid JSON: nested too deeply") from None
    return from_data(data)


def load(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("$", f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return loads(text)
