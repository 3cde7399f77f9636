"""Differential tests: the sparse-column ``Matrix`` and the writers against the
dense row-major class and the dense writer paths they replaced.

``conftest.DenseMatrix`` and the ``dense_*`` functions are the previous
code.  Entries are ints and ``Fraction``s, shapes include zero rows and
zero columns, and a matrix is built both through ``from_rows`` (entries
coerced to ``Fraction``) and directly from column dicts that keep raw
int entries, as the package builds its bases.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DenseMatrix, dense_inverse, dense_kernel, dense_rank, identity, kernel,
                      matmul, row, row_list, vectors, zero_matrix)
from polydarboux import cli
from polydarboux.errors import PreconditionError
from polydarboux.io import matrix_columns, subspace_to_rows
from polydarboux.linalg import Matrix, Subspace, inverse, rank

ZERO = Fraction(0)

settings.register_profile("matrix_oracle", deadline=None, max_examples=150, derandomize=True)

entries = st.one_of(st.just(0), st.integers(-4, 4),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))


@st.composite
def matrix_data(draw, rows=None, cols=None, max_n=5):
    """(rows, cols, dense rows) with a dependent row now and then."""
    rows = draw(st.integers(0, max_n)) if rows is None else rows
    cols = draw(st.integers(0, max_n)) if cols is None else cols
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        data[-1] = [x + y for x, y in zip(data[0], data[1])]
    return rows, cols, data


def both(rows: int, cols: int, data, direct: bool = False):
    """The matrix as ``Matrix`` and as ``DenseMatrix``; ``from_rows`` cannot spell 0 rows.

    ``direct`` builds the ``Matrix`` from column dicts holding the raw entries."""
    d = DenseMatrix.from_rows(data) if rows else DenseMatrix.zero(0, cols)
    if direct:
        m = Matrix(rows, tuple({i: data[i][j] for i in range(rows) if data[i][j]}
                               for j in range(cols)))
    else:
        m = Matrix.from_rows(data) if rows else zero_matrix(0, cols)
    return m, d


def assert_same(m: Matrix, d: DenseMatrix):
    assert (m.rows, m.cols) == (d.rows, d.cols)
    assert row_list(m) == d.row_list()
    assert len(m.columns) == m.cols
    assert all(x != 0 and 0 <= i < m.rows for c in m.columns for i, x in c.items())


@settings(settings.get_profile("matrix_oracle"))
@given(matrix_data(), st.booleans())
def test_constructors_and_readers_match_the_dense_class(shaped, direct):
    rows, cols, data = shaped
    m, d = both(rows, cols, data, direct)
    assert_same(m, d)
    for i in range(rows):
        assert row(m, i) == d.row(i)
    for j in range(cols):
        assert m.col(j) == d.col(j)
    assert_same(m.transpose(), d.transpose())
    col_data = [list(d.col(j)) for j in range(cols)]
    assert_same(Matrix.from_cols(col_data), DenseMatrix.from_cols(col_data))
    if rows and not direct:
        # int and Fraction entries build the same matrix, held as Fractions
        assert m == Matrix.from_rows([[Fraction(x) for x in r] for r in data])
        assert all(type(x) is Fraction for c in m.columns for x in c.values())


@pytest.mark.parametrize("n", [0, 1, 4])
def test_identity_and_zero_match_the_dense_class(n):
    eye = DenseMatrix(n, n, tuple(Fraction(i == j) for i in range(n) for j in range(n)))
    assert_same(identity(n), eye)
    assert_same(inverse(identity(n)), dense_inverse(eye))
    for rows, cols in [(n, 0), (0, n), (n, 3), (2, n)]:
        z, dz = zero_matrix(rows, cols), DenseMatrix.zero(rows, cols)
        assert_same(z, dz)
        assert_same(z.transpose(), dz.transpose())
        assert z.apply([1] * cols) == {}
        assert rank(z) == dense_rank(dz) == 0
        assert kernel(z) == dense_kernel(dz) == Subspace.full(cols)


@settings(settings.get_profile("matrix_oracle"))
@given(st.data(), st.booleans())
def test_apply_matches_the_dense_class(data, direct):
    rows, cols, a = data.draw(matrix_data())
    m, d = both(rows, cols, a, direct)
    v = [data.draw(entries) for _ in range(cols)]
    want = {i: x for i, x in enumerate(d.mul_vec(v)) if x}
    assert m.apply(v) == m.apply({j: x for j, x in enumerate(v) if x}) == want


@settings(settings.get_profile("matrix_oracle"))
@given(st.data(), st.booleans())
def test_elimination_matches_the_dense_class(data, direct):
    rows, cols, raw = data.draw(matrix_data())
    m, d = both(rows, cols, raw, direct)
    assert rank(m) == dense_rank(d)
    assert kernel(m) == dense_kernel(d)


@settings(settings.get_profile("matrix_oracle"))
@given(st.data(), st.booleans())
def test_inverse_matches_the_dense_class(data, direct):
    n = data.draw(st.integers(0, 5))
    _, _, raw = data.draw(matrix_data(rows=n, cols=n))
    m, d = both(n, n, raw, direct)
    try:
        want = dense_inverse(d)
    except PreconditionError:
        with pytest.raises(PreconditionError, match="singular"):
            inverse(m)
        return
    got = inverse(m)
    assert_same(got, want)
    assert matmul(got, m) == matmul(m, got) == identity(n)


# ---------------------------------------------------------------------------
# the writers against str(Fraction) of the dense path

big_entries = st.one_of(
    st.just(0), st.integers(-10 ** 15, 10 ** 15),
    st.builds(Fraction, st.integers(-10 ** 14, 10 ** 14),
              st.integers(10 ** 12, 10 ** 13 - 1)))   # 13-digit denominators


@settings(settings.get_profile("matrix_oracle"))
@given(st.data())
def test_matrix_columns_write_the_dense_strings(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    raw = [[data.draw(big_entries) for _ in range(rows)] for _ in range(cols)]
    want = [[str(Fraction(x)) for x in col] for col in raw]
    assert matrix_columns(Matrix(rows, tuple({i: x for i, x in enumerate(col) if x}
                                             for col in raw))) == want
    if cols:
        assert matrix_columns(Matrix.from_cols(raw)) == want
    # the old writer: str of every entry of every dense row of the transpose
    d = DenseMatrix.from_cols(raw) if cols else DenseMatrix.zero(rows, 0)
    assert want == [[str(x) for x in d.col(j)] for j in range(cols)]


def _dense_rref_strings(sub: Subspace) -> list[list[str]]:
    """The old writer: each echelon row divided by its pivot entry into a dense
    ``Fraction`` row, then ``str`` of every entry."""
    out = []
    for p, row in zip(sub.pivot_columns(), sub.rows()):
        dense = [ZERO] * sub.ambient_dim
        for j, x in row.items():
            dense[j] = Fraction(x, row[p])
        out.append([str(x) for x in dense])
    return out


@settings(settings.get_profile("matrix_oracle"))
@given(st.data())
def test_subspace_rows_write_the_dense_strings(data):
    dim = data.draw(st.integers(0, 7))
    spanning = [[data.draw(big_entries) for _ in range(dim)]
                for _ in range(data.draw(st.integers(0, 4)))]
    sub = Subspace.from_vectors(dim, spanning)
    want = _dense_rref_strings(sub)
    assert subspace_to_rows(sub) == want
    assert want == [[str(x) for x in r] for r in vectors(sub)]


def test_writers_on_fixed_entries():
    m = Matrix.from_cols([[Fraction(-7, 1000000000007), 0, 3], [0, 0, 0]])
    assert matrix_columns(m) == [["-7/1000000000007", "0", "3"], ["0", "0", "0"]]
    sub = Subspace.from_vectors(3, [[2, 0, Fraction(-1, 9999999999999)]])
    assert subspace_to_rows(sub) == [["1", "0", "-1/19999999999998"]]


# ---------------------------------------------------------------------------
# gate: the darboux command reads no dense matrix row or column


@pytest.mark.parametrize("model", [["poly", "32", "1", "1"], ["multi", "3", "3", "3", "3"]])
def test_darboux_command_reads_no_dense_row(model, tmp_path, monkeypatch, capsys):
    doc = str(tmp_path / "model.json")
    assert cli.main(["canonical", *model, "--shuffle-seed", "3", "-o", doc]) == 0
    called = []
    for cls, name in [(Matrix, "transpose"), (Matrix, "col")]:
        def counted(*args, _name=f"{cls.__name__}.{name}", _f=getattr(cls, name), **kwargs):
            called.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    capsys.readouterr()
    assert cli.main(["darboux", doc, "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert called == []
    dim = len(result["labels"])
    assert len(result["basis_columns"]) == dim
    assert all(len(col) == dim for col in result["basis_columns"])
