"""Differential tests: the document reader and the row writer against the code they replaced.

Scalar and vector-valued documents are read straight into integer views, and
a flag's splitting into sparse columns; the previous reader took each term
through ``Fraction``s and ``form``, and each splitting entry through ``_rat``
and ``Matrix.from_cols``.  Subspace rows are written from the integer echelon;
the previous writer built a ``Fraction`` per entry.  The oracles are kept in
``conftest``.  Two texts differ on purpose: indices outside 1..dim are refused
by name while parsing, and so is a splitting that is not a list of lists.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import parse_alternating_oracle, parse_flag_oracle, subspace_to_rows_oracle
from polydarboux import io
from polydarboux.errors import DocumentError
from polydarboux.exterior import AlternatingForm, VectorValuedForm
from polydarboux.linalg import Subspace
from test_polyform_oracle import BAD_COEFFICIENTS, PAIR_COEFFICIENTS, _negated, _parsed

settings.register_profile("document_oracle", deadline=None, max_examples=300,
                          derandomize=True)

COEFFICIENTS = PAIR_COEFFICIENTS + [
    "0/7", "123456789012345678901234567890/987654321098765432109876543210",
    "-98765432109876543210987654321", 3]
BAD = BAD_COEFFICIENTS + ["nan", "inf", "1e3", "1_000", "+7/+2", "٣", "1" * 4301,
                          "2/" + "3" * 4301, "-" + "9" * 4300]


def _view(x):
    """A parsed form as its integer views, dict order included, or an error text as is."""
    if isinstance(x, AlternatingForm):
        return x.dim, x.degree, list(x._numerators[0].items()), x._numerators[1]
    if isinstance(x, VectorValuedForm):
        return [_view(c) for c in x.components]
    return x


def _flag_view(x):
    if isinstance(x, str):
        return x
    return (x.total_dim, x.vertical, x.splitting.rows,
            [list(col.items()) for col in x.splitting.columns])


def _range_text(doc: dict):
    """The refusal of the first integer multi-index outside 1..dim, if any."""
    dim = doc.get("dim")
    for term in doc.get("terms") or []:
        idx = term.get("indices") if isinstance(term, dict) else None
        if (type(dim) is int and type(idx) is list and idx and {int}.issuperset(map(type, idx))
                and not (1 <= min(idx) and max(idx) <= dim)):
            return f"indices {io._shown(idx)} leave the coordinates 1..{dim}"
    return None


@st.composite
def alternating_documents(draw):
    """A scalar or vector-valued document on R^1..R^4; about one in four carries malformed
    fields.  Pools are small, so that multi-indices repeat and repeats cancel."""
    dim = draw(st.integers(1, 4))
    degree = draw(st.integers(0, min(3, dim)))
    kind = draw(st.sampled_from(["scalar_form", "vector_valued_form"]))
    value_dim = 1 if kind == "scalar_form" else draw(st.integers(0, 3))
    bad = draw(st.integers(0, 3)) == 0

    def maybe(good, wrong):
        return draw(st.sampled_from(wrong)) if bad and draw(st.integers(0, 2)) == 0 else good

    combos = [list(c) for c in itertools.combinations(range(1, dim + 1), degree)]
    pool = draw(st.lists(st.sampled_from(combos), min_size=1, max_size=3))
    terms: list = []
    for _ in range(draw(st.integers(0, 8))):
        if terms and draw(st.integers(0, 3)) == 0:
            # an earlier term again, negated so that it cancels, or with another coefficient
            old = draw(st.sampled_from(terms))
            c = old.get("coefficient")
            term = dict(old, coefficient=_negated(c) if draw(st.booleans())
                        else draw(st.sampled_from(COEFFICIENTS)))
        else:
            term = {"indices": maybe(draw(st.sampled_from(pool)),
                                     [[0] * max(degree, 1), [-2] + list(range(1, degree)),
                                      [dim + 1] * max(degree, 1), list(range(dim - degree + 2,
                                                                             dim + 2)),
                                      list(range(degree, 0, -1)), [1] * (degree + 1), [True],
                                      "1", None]),
                    "coefficient": maybe(draw(st.sampled_from(COEFFICIENTS)), BAD)}
        if value_dim != 1 or draw(st.integers(0, 3)) == 0:
            term["component"] = maybe(draw(st.integers(1, max(value_dim, 1))),
                                      [0, value_dim + 1, "1", True, 1.0])
        if bad and draw(st.integers(0, 9)) == 0:
            del term["coefficient"]
        terms.append(term)
    doc = {"dim": maybe(dim, [0, -1, "4", dim - 1]),
           "degree": maybe(degree, [degree + 1, -1, dim + 1, None]),
           "terms": maybe(terms, [{}, "terms", None])}
    if kind == "vector_valued_form" or draw(st.integers(0, 3)) == 0:
        doc["value_dim"] = maybe(value_dim, [-1, "2", 2 if kind == "scalar_form" else 0])
    return kind, doc


@settings(settings.get_profile("document_oracle"))
@given(alternating_documents())
def test_documents_read_into_the_view_like_the_fraction_path(drawn):
    kind, doc = drawn
    got = _view(_parsed(io._parse_alternating, doc, kind))
    want = _view(_parsed(parse_alternating_oracle, doc, kind))
    if got != want:  # only where the old path let an index outside 1..dim through
        assert got == _range_text(doc), (got, want)


@st.composite
def flagged_documents(draw):
    """A flag on R^1..R^5 with a splitting: each free coordinate's unit column plus vertical
    corrections, written densely with "0"s; about two in three are malformed."""
    dim = draw(st.integers(1, 5))
    vertical = sorted(draw(st.sets(st.integers(1, dim), max_size=dim - 1)))
    free = [j for j in range(1, dim + 1) if j not in vertical]
    cols = []
    for f in free:
        col = ["0"] * dim
        col[f - 1] = draw(st.sampled_from(["1", "2/2", 1, "+1"]))
        for v in vertical:
            col[v - 1] = draw(st.sampled_from(["0", "0", "-0", "0/3", 0, "1/2", "-3", "7/5"]))
        cols.append(col)
    bad = draw(st.integers(0, 5))
    if bad == 0:
        cols = draw(st.sampled_from([5, "abc", [1, 2], [[1], 2], [["1"], "10"], {"c": []},
                                     True, [None]]))
    elif bad == 1 and cols:
        i, j = draw(st.integers(0, len(cols) - 1)), draw(st.integers(0, dim - 1))
        cols[i][j] = draw(st.sampled_from(BAD + ["3", "1/3"]))
    elif bad == 2 and cols:
        cols[draw(st.integers(0, len(cols) - 1))].append("0")  # ragged
    elif bad == 3:
        cols = draw(st.sampled_from([[], [["0"] * dim], cols + cols[:1], None]))
    flag_doc = {"vertical_indices": vertical, "splitting": cols}
    if draw(st.integers(0, 9)) == 0:
        del flag_doc["splitting"]
    return flag_doc, {"dim": dim}


def _splitting_text(flag_doc: dict):
    split = flag_doc.get("splitting")
    if split is None or (type(split) is list and all(type(c) is list for c in split)):
        return None
    return f"splitting must be a list of lists, got {io._shown(split)}"


@settings(settings.get_profile("document_oracle"))
@given(flagged_documents())
def test_splittings_read_into_sparse_columns_like_the_dense_path(drawn):
    flag_doc, doc = drawn
    got = _flag_view(_parsed(io._parse_flag, flag_doc, doc))
    want = _flag_view(_parsed(parse_flag_oracle, flag_doc, doc))
    if got != want:  # only where the old path choked on a splitting that is no matrix
        assert got == _splitting_text(flag_doc), (got, want)
    if isinstance(got, tuple):
        assert all(type(x) is Fraction for col in got[3] for _, x in col)


@pytest.mark.parametrize("splitting, message", [
    (5, "splitting must be a list of lists, got 5"),
    ([1, 2], "splitting must be a list of lists, got [1, 2]"),
    ("abc", "splitting must be a list of lists, got 'abc'"),
    ([["1", "0"], "10"], "splitting must be a list of lists, got [['1', '0'], '10']"),
    ([["1", "0", "0"], ["0", "1"]], "invalid document: ragged rows"),
    ([["1", "0", "x"], ["0", "1"]], "bad rational 'x': Invalid literal for Fraction: 'x'"),
])
def test_malformed_splittings_are_refused_by_name(splitting, message):
    doc = {"schema_version": "1", "kind": "scalar_form", "dim": 3, "degree": 2,
           "terms": [{"indices": [1, 3], "coefficient": "1"}],
           "flag": {"vertical_indices": [3], "splitting": splitting}}
    with pytest.raises(DocumentError) as err:
        io.parse_document(doc)
    assert str(err.value) == message


def test_reader_keeps_first_occurrence_order_and_drops_cancellations():
    doc = {"dim": 3, "degree": 1, "value_dim": 2, "terms": [
        {"indices": [3], "coefficient": "1/2", "component": 2},
        {"indices": [2], "coefficient": "1", "component": 1},
        {"indices": [1], "coefficient": "0", "component": 1},   # a zero holds its place
        {"indices": [2], "coefficient": "-1", "component": 1},  # and a cancellation drops it
        {"indices": [1], "coefficient": "2/3", "component": 1},
        {"indices": [3], "coefficient": "-1/2", "component": 2},
    ]}
    got = io._parse_alternating(doc, "vector_valued_form")
    assert _view(got) == _view(parse_alternating_oracle(doc, "vector_valued_form"))
    assert _view(got) == [(3, 1, [(0b001, 2)], 3), (3, 1, [], 1)]


vectors = st.lists(st.lists(st.integers(-6, 6).map(lambda n: Fraction(n, 1))
                            | st.fractions(min_value=-3, max_value=3, max_denominator=7),
                            min_size=5, max_size=5), max_size=5)


@settings(settings.get_profile("document_oracle"))
@given(vectors, st.integers(1, 5))
def test_rows_are_written_from_the_echelon_like_the_fraction_path(rows, dim):
    sub = Subspace.from_vectors(dim, [r[:dim] for r in rows])
    assert io.subspace_to_rows(sub) == subspace_to_rows_oracle(sub)


def test_rows_with_non_unit_pivots_and_negative_entries():
    sub = Subspace.from_vectors(4, [[3, 0, -1, 2], [0, 5, 2, -7], [6, 5, 0, 0]])
    assert any(row[p] > 1 for p, row in sub.echelon.rows.items())  # non-unit pivots
    assert io.subspace_to_rows(sub) == subspace_to_rows_oracle(sub)
    assert io.subspace_to_rows(Subspace.zero(3)) == []
    assert io.subspace_to_rows(Subspace.full(2)) == [["1", "0"], ["0", "1"]]
