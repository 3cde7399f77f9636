"""A small fuzzer over mutated documents.

Each case takes a seed document, a corpus file or a canonical model with or
without its flag, applies a few drawn mutations and runs
``analyze <file> --json`` on it.  The contract: exit 0, 1 or 2, no
traceback and no exception out of ``main``, and a time bound per case.
Every drawn value is small, so no case can ask for a large allocation.
"""

from __future__ import annotations

import contextlib
import copy
import io as stdio
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polydarboux import io
from polydarboux.cli import main
from polydarboux.corpus import corpus_files
from polydarboux.darboux import canonical_multi_model, canonical_poly_model, conjugating_map
from polydarboux.exterior import form, pullback
from polydarboux.io import MAX_VALUE_DIM, alternating_to_document, parse_document

CASE_SECONDS = 10.0  # an analyze of these documents takes milliseconds


def _seed_documents() -> list[dict]:
    docs = [json.loads(Path(p).read_text()) for p in corpus_files()]
    docs = [d for d in docs if d["kind"] in ("scalar_form", "vector_valued_form")]
    multi = canonical_multi_model(2, 2, 2, 2)
    moved = pullback(multi.form, conjugating_map(multi, 5).matrix)
    docs.append(alternating_to_document(moved, flag=multi.flag, r=2))
    docs.append(alternating_to_document(multi.form, flag=multi.flag, r=2))
    docs.append(alternating_to_document(canonical_poly_model(2, 1, 1).form))
    docs.append(alternating_to_document(form(4, 2, {(1, 2): 1, (3, 4): "-1/2"})))
    return docs


SEEDS = _seed_documents()

SMALL = st.one_of(st.integers(-2, 9), st.sampled_from(["2", "1/2", None, 1.5, True, [], {}]))
# mostly coefficients that parse, so that most cases reach the analysis
COEFFICIENT = st.integers(0, 3).flatmap(lambda i: st.sampled_from(
    ["0", "1", "-1", "3/7", "-0", "2/4", "-5/3", "123456789012345678901234567890/7", 1, 0]
    if i < 3 else ["x", "1/0", "1e3", "", " 1", "1" * 4301, True, 1.5, None, [1]]))
INDICES = st.one_of(st.sets(st.integers(1, 6), min_size=2, max_size=3).map(sorted),
                    st.lists(st.integers(-1, 8), max_size=4), SMALL)
SPLITTING = st.sampled_from([5, "abc", [1, 2], [], [[]], [["1"]], [["1", "0"], "10"], None,
                             [["0", "1", "0"], ["1", "0"]], {"c": []}])


@st.composite
def mutated(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 2))):
        terms = doc.get("terms")
        term = draw(st.sampled_from(terms)) if type(terms) is list and terms else None
        flag = doc.get("flag") if type(doc.get("flag")) is dict else None
        op = draw(st.integers(0, 11))
        if type(term) is dict and op <= 3:
            term["coefficient"] = draw(COEFFICIENT)
        elif type(term) is dict and op <= 5:
            key = "indices" if op == 4 else "component"
            term[key] = draw(INDICES if op == 4 else SMALL)
        elif type(term) is dict and op == 6:
            terms.append(dict(term, coefficient=draw(COEFFICIENT)))  # a repeat
        elif term is not None and op == 7:
            terms.remove(term)
        elif flag is not None and op == 8:
            cols = flag.get("splitting")
            if draw(st.booleans()) and type(cols) is list and cols and type(cols[0]) is list:
                cols[0][draw(st.integers(0, len(cols[0]) - 1))] = draw(COEFFICIENT)
            else:
                flag["splitting"] = draw(SPLITTING)
        elif flag is not None and op == 9:
            flag["vertical_indices"] = draw(INDICES)
        elif op == 10:
            doc.pop(draw(st.sampled_from(sorted(doc))), None)
        else:
            key = draw(st.sampled_from(["dim", "degree", "value_dim", "r", "kind", "flag"]))
            doc[key] = draw(SMALL if key != "kind" else st.sampled_from(
                ["scalar_form", "vector_valued_form", "poly_form", "lie_algebra", "x"]))
    return doc


@pytest.fixture(scope="module")
def case_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.json"


@settings(deadline=None, max_examples=120, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_analyze_exits_cleanly_on_mutated_documents(case_path, doc):
    case_path.write_text(json.dumps(doc))
    out, err = stdio.StringIO(), stdio.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(case_path), "--json"])
    assert time.perf_counter() - started < CASE_SECONDS, doc
    assert code in (0, 1, 2), (code, err.getvalue(), doc)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""


def _wide_document(value_dim: int) -> dict:
    return {"schema_version": "1", "kind": "vector_valued_form", "dim": 4, "degree": 2,
            "value_dim": value_dim, "terms": [{"indices": [1, 2], "coefficient": "1"}]}


@pytest.mark.parametrize("command", ["analyze", "darboux", "symbol", "homotopy", "moser"])
def test_value_dimension_beyond_the_budget_exits_one_before_any_component(
        case_path, capsys, monkeypatch, command):
    """One term at value_dim 400 ran for over a minute: one component per declared value."""
    assert parse_document(_wide_document(MAX_VALUE_DIM)).payload.value_dim == MAX_VALUE_DIM
    built = []
    monkeypatch.setattr(io, "_seeded", lambda *args: built.append(args))
    case_path.write_text(json.dumps(_wide_document(MAX_VALUE_DIM + 1)))
    assert main([command, str(case_path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert "MAX_VALUE_DIM" in captured.err and str(MAX_VALUE_DIM) in captured.err
