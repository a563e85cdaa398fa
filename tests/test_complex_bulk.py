"""The bulk reader of complex files (``hodge._bulk_source``) against the full
parse: on every text it reads, the arrays are the full parse's bit for bit,
and on every text, read or declined, the ``hodge`` command exits with the
same code and writes the same report and error as with the reader off."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge import cli, hodge
from nchodge.scalars import field_for, float_span

_BUNDLED_CIRCLE = Path(hodge.__file__).parent / "data" / "circle_alpha_-1_N8.json"

# JSON numbers the full parse reads: ints, -0.0, 1e-300 (whose square
# underflows), and an int past the float range, which no float matrix may hold
_VALUES = st.one_of(st.integers(-3, 3),
                    st.sampled_from([0.5, -0.0, 1e-300, -1.25, 3e5, 1.0, 10 ** 400]))
_NAMES = ["cx", "a[b", "a]b", "a{b", 'a"b', "café", "a\\b"]
_BAD_NUMBERS = ["01", "+1", "1.", ".5", "1e", "--1", "NaN", "Infinity", "-Infinity",
                "1e400", "true", "null", "[1]"]
# the four spellings the bulk reader sets, zeros it parses, and near-zeros
# that the full parse rejects
_ZERO_TOKENS = ["0", "-0", "0.0", "-0.0", "0.00", "-0.0e0", "00", "-00", "0 .0", "- 0"]


def _matrix(draw, rows, cols, pairs, values=_VALUES):
    entry = st.lists(values, min_size=2, max_size=2) if pairs else values
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _scaled_identity(n, scale, pairs):
    return [[([scale if i == j else 0, 0] if pairs else (scale if i == j else 0))
             for j in range(n)] for i in range(n)]


@st.composite
def _complexes(draw):
    """A complex file as a dict: one drawn differential and zero ones after
    it (so D D = 0), Grams absent, scales or scaled identities, each matrix
    in the [re, im] or the plain-number form, and keys in a drawn order."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    diffs = []
    for k in range(len(dims) - 1):
        pairs = draw(st.booleans())
        rows, cols = dims[k + 1], dims[k]
        diffs.append(_matrix(draw, rows, cols, pairs) if k == 0
                     else _matrix(draw, rows, cols, pairs, st.just(0)))
    data = {"dims": dims, "differentials": diffs}
    grams = draw(st.sampled_from(["absent", "scales", "matrices"]))
    if grams == "scales":
        data["gram"] = [draw(st.sampled_from([None, 1.0, 2, 0.5])) for _ in dims]
    elif grams == "matrices":
        data["gram"] = [_scaled_identity(n, draw(st.sampled_from([1, 2.5])), draw(st.booleans()))
                        for n in dims]
    if draw(st.booleans()):
        data["name"] = draw(st.sampled_from(_NAMES))
    keys = draw(st.permutations(list(data)))
    return {key: data[key] for key in keys}


def _dumps(draw, data):
    """``json.dumps`` with a drawn indent, separators and line ending."""
    text = json.dumps(data, indent=draw(st.sampled_from([None, 0, 2, "\t"])),
                      separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])),
                      ensure_ascii=draw(st.booleans()))
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


def _mutate(draw, text, data):
    """``text`` unchanged, or with one drawn defect or oddity."""
    how = draw(st.sampled_from(["none", "drop", "double", "space", "number", "zero", "bom",
                                "duplicate", "trailing"]))
    if how in ("drop", "double"):
        at = [i for i, c in enumerate(text) if c in ",[]"]
        if at:
            i = at[draw(st.integers(0, len(at) - 1))]
            return text[:i] + text[i + 1:] if how == "drop" else text[:i] + text[i] + text[i:]
    elif how == "space":
        at = [i + 1 for i in range(len(text) - 1) if text[i].isdigit() and text[i + 1].isdigit()]
        if at:
            i = at[draw(st.integers(0, len(at) - 1))]
            return text[:i] + " " + text[i:]
    elif how in ("number", "zero"):
        found = list(re.finditer(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", text))
        if found:
            m = found[draw(st.integers(0, len(found) - 1))]
            token = draw(st.sampled_from(_BAD_NUMBERS if how == "number" else _ZERO_TOKENS))
            return text[:m.start()] + token + text[m.end():]
    elif how == "bom":
        return "\ufeff" + text
    elif how == "duplicate":
        key = draw(st.sampled_from(["differentials", "gram", "dims"]))
        value = json.dumps(data.get(key, data["differentials"]))
        return text.replace("{", '{"%s": %s, ' % (key, value), 1)
    elif how == "trailing":
        return text + draw(st.sampled_from([" x", "]", "}", ",", " ", "\n", "{}"]))
    return text


@st.composite
def _complex_texts(draw):
    data = draw(_complexes())
    return _mutate(draw, _dumps(draw, data), data)


def _hodge(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["hodge", "--complex", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_complex_texts())
def test_hodge_on_generated_files_is_the_same_with_the_bulk_reader_off(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cx.json"
        path.write_bytes(text.encode("utf-8"))
        bulk = _hodge(path)
        with mock.patch.object(hodge, "_bulk_source", lambda text: None):
            full = _hodge(path)
    assert bulk == full


def _layouts(data):
    """The text of ``data`` as compact, default, indented and CRLF JSON."""
    return [json.dumps(data, separators=(",", ":")), json.dumps(data),
            json.dumps(data, indent=2), json.dumps(data, indent=2).replace("\n", "\r\n")]


def _plain(nested):
    """[re, im] pairs of a real matrix as plain numbers."""
    return [[re for re, _ in row] for row in nested]


@pytest.mark.parametrize("text", [
    *_layouts(json.loads(_BUNDLED_CIRCLE.read_text())),
    *_layouts(dict(json.loads(_BUNDLED_CIRCLE.read_text()),
                   gram=[_plain(g) for g in json.loads(_BUNDLED_CIRCLE.read_text())["gram"]])),
    # empty differentials, ints, -0.0 and 1e-300
    '{"dims": [2, 0, 1], "differentials": [[], [[]]], "gram": [null, 2, 0.5]}',
    '{"dims": [2, 3], "differentials": [[[1, -0.0], [0, 1e-300], [2, 3]]]}',
    '{"dims": [1, 1], "name": "x", "gram": [[[2]], [[[1, 0]]]], "differentials": [[[5]]]}',
])
def test_the_bulk_reader_reads_what_the_full_parse_reads(text):
    bulk = hodge._bulk_source(text)
    assert bulk is not None
    full = json.loads(text)
    assert bulk.keys() == full.keys()
    got, want = hodge.load_complex(bulk), hodge.load_complex(full)
    for a, b in zip([*got.diffs, *got.grams], [*want.diffs, *want.grams]):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got.name == want.name


@pytest.mark.parametrize("text", [
    "\ufeff" + '{"dims": [1, 1], "differentials": [[[1]]]}',            # a BOM
    '{"dims": [1, 1], "differentials": [[[1]]], "name": "café"}',    # not ASCII
    '{"dims": [1, 1], "differentials": [[[1]]], "name": "a\\"b"}',       # an escape
    '{"dims": [1, 1], "differentials": [[[1]]], "name": "a[b"}',         # a bracket in a string
    '{"dims": [1, 1], "differentials": [[[1]]], "x": {}}',                # two braces
    '{"differentials": [[[2]]], "dims": [1, 1], "differentials": [[[1]]]}',  # duplicate key
    '{"dims": [1, 1], "differentials": [[[NaN]]]}',
    '{"dims": [1, 1], "differentials": [[[Infinity]]]}',
    '{"dims": [1, 1], "differentials": [[[1%s]]]}' % ("0" * 400),         # an int past floats
    '{"dims": [1, 2], "differentials": [[[1], [2, 3]]]}',                 # mixed row lengths
    '{"dims": [2, 1], "differentials": [[[1, [2, 0]]]]}',                  # mixed entry forms
    '{"dims": [1, 1], "differentials": [[[1] ]], "gram": [[[1]], [[1] 2]]}',  # a number after ]
    '{"dims": [[1], 1], "differentials": [[[1]]]}',                       # a matrix in dims
    '{"dims": [1, 1], "differentials": [[[1]]], "name": [[1]]}',         # one as the name
    '{"dims": [1, 1], "differentials": [[[01]]]}',
    '{"dims": [1, 1], "differentials": [[[1 2]]]}',
    *('{"dims": [2, 2], "differentials": [[[0, -0.0], [%s, 0.0]]]}' % token
      for token in ("00", "-00", "0 .0", "- 0")),                          # not zeros
    '{"dims": [1, 1], "differentials": [[[1]]]} x',                       # trailing junk
])
def test_the_bulk_reader_declines_what_it_cannot_prove(text):
    assert hodge._bulk_source(text) is None


def _span(nested, layout, token):
    """The JSON text of ``nested`` in ``layout`` with every "Z" written ``token``."""
    text = {"compact": lambda: json.dumps(nested, separators=(",", ":")),
            "default": lambda: json.dumps(nested),
            "indent-2-crlf": lambda: json.dumps(nested, indent=2).replace("\n", "\r\n")}[layout]()
    return text.replace('"Z"', token).encode()


# one matrix per entry form, the spelling among other zeros and numbers,
# and an all-zero one
_ZERO_MATRICES = {
    "numbers": ([["Z", 1.5, "Z"], [-2, "Z", "Z"]], (2, 3)),
    "pairs": ([[["Z", "Z"], [1.5, "Z"]], [["Z", -2], ["Z", 1e-300]]], (2, 2)),
    "all-zero": ([["Z", "Z"], ["Z", "Z"]], (2, 2)),
}


@pytest.mark.parametrize("layout", ["compact", "default", "indent-2-crlf"])
@pytest.mark.parametrize("form", sorted(_ZERO_MATRICES))
@pytest.mark.parametrize("token", ["0", "-0", "0.0", "-0.0", "0.00", "-0.0e0"])
def test_float_span_gives_the_full_parse_bits_for_every_zero_spelling(token, form, layout):
    nested, shape = _ZERO_MATRICES[form]
    span = _span(nested, layout, token)
    got = float_span(span, shape)
    want = field_for("float").matrix_from_json(json.loads(span), shape)
    assert got is not None
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


@pytest.mark.parametrize("layout", ["compact", "default", "indent-2-crlf"])
@pytest.mark.parametrize("form", sorted(_ZERO_MATRICES))
@pytest.mark.parametrize("token", ["00", "-00", "0 .0", "- 0"])
def test_float_span_declines_what_the_full_parse_rejects_among_zeros(token, form, layout):
    nested, shape = _ZERO_MATRICES[form]
    span = _span(nested, layout, token)
    with pytest.raises(ValueError):
        json.loads(span)
    assert float_span(span, shape) is None
    # one such token among set zeros
    nested = json.loads(_span(nested, "default", "0"))
    text = json.dumps(nested).replace("0", token, 1).encode()
    assert float_span(text, shape) is None, text


def test_float_span_reads_both_forms_and_checks_the_brackets():
    assert float_span(b"[[1, 2], [3, 4.5]]", (2, 2)).tolist() == [[1, 2], [3, 4.5]]
    assert float_span(b"[[[1, 2]], [[3, -0.0]]]", (2, 1)).tolist() == [[1 + 2j], [3]]
    assert float_span(b"[]", (0, 3)).shape == (0, 3)
    assert np.isinf(float_span(b"[[1, 2], [3, 1e999]]", (2, 2))[1, 1])
    for span, shape in [(b"[[1, 2], [3, 4]]", (2, 3)), (b"[[1, 2]3, [4]]", (2, 2)),
                        (b"[[1, 2] ,3[,4]]", (2, 2)), (b"[[true, 2], [3, 4]]", (2, 2)),
                        (b"[[1, 2], [3, 4]]]", (2, 2)), (b"[[], []]", (2, 0))]:
        assert float_span(span, shape) is None, span
