import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import polydarboux
from conftest import corrupt_first_basis_column
from polydarboux import cli
from polydarboux.cli import main
from polydarboux.corpus import corpus_files

CORPUS = {Path(p).name: p for p in corpus_files()}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_analyze_rank_gap_document(capsys):
    code, out = run_cli(["analyze", CORPUS["appendix_a1.json"], "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["classification"] == "none"
    assert rep["result"]["constant_rank_sampled"] == 2
    assert rep["result"]["uniform_rank"] is None


def test_analyze_canonical_document(capsys):
    code, out = run_cli(["analyze", CORPUS["canonical_poly_2_2_1.json"], "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["classification"] == "polysymplectic"
    assert rep["result"]["rank"] == 2
    assert len(rep["result"]["lagrangian_subspace"]) == 4


def test_reports_are_byte_identical(capsys):
    _, out1 = run_cli(["analyze", CORPUS["appendix_a2.json"], "--json", "--seed", "5"], capsys)
    _, out2 = run_cli(["analyze", CORPUS["appendix_a2.json"], "--json", "--seed", "5"], capsys)
    assert out1 == out2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["analyze", str(bad)], capsys)[0] == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run_cli(["analyze", str(empty)], capsys)[0] == 2


def test_canonical_then_darboux_round_trip(tmp_path, capsys):
    doc = tmp_path / "conj.json"
    code, _ = run_cli(["canonical", "poly", "2", "2", "1",
                       "--shuffle-seed", "11", "-o", str(doc)], capsys)
    assert code == 0
    code, out = run_cli(["darboux", str(doc), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["canonical_pattern_match"] is True
    assert rep["result"]["params"] == [2, 2, 1]


def test_canonical_multi_round_trip(tmp_path, capsys):
    doc = tmp_path / "multi.json"
    code, _ = run_cli(["canonical", "multi", "1", "2", "2", "2",
                       "--shuffle-seed", "3", "-o", str(doc)], capsys)
    assert code == 0
    code, out = run_cli(["darboux", str(doc), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["params"] == [1, 2, 2, 2]


def test_analyze_flagged_document(tmp_path, capsys):
    doc = tmp_path / "ms.json"
    run_cli(["canonical", "multi", "1", "2", "2", "2", "-o", str(doc)], capsys)
    code, out = run_cli(["analyze", str(doc), "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["classification"] == "multisymplectic"
    assert rep["result"]["rank"] == 1
    assert rep["result"]["horizontality"] == [2, 1]


def test_symbol_command_emits_pattern(tmp_path, capsys):
    doc = tmp_path / "model.json"
    run_cli(["canonical", "multi", "1", "2", "2", "2", "-o", str(doc)], capsys)
    code, out = run_cli(["symbol", str(doc)], capsys)
    assert code == 0
    sym_doc = json.loads(out)
    assert sym_doc["kind"] == "vector_valued_form"
    assert sym_doc["value_dim"] == 2
    # two slot/index pairings per base direction
    assert len(sym_doc["terms"]) == 2


def test_homotopy_command(tmp_path, capsys):
    from polydarboux.io import poly_form_to_document
    from polydarboux.polyforms import PolyForm, poly_const
    omega = PolyForm(2, 2, (1, 1), {0b11: poly_const(2, 1)})
    doc = tmp_path / "closed.json"
    doc.write_text(json.dumps(poly_form_to_document(omega)))
    code, out = run_cli(["homotopy", str(doc), "--r", "1", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["derivative_matches"] is True
    assert rep["result"]["vertical_factors_of_primitive"] == 0


def test_moser_command(capsys):
    code, out = run_cli(["moser", CORPUS["perturbed_multisymplectic.json"],
                         "--steps", "50", "--samples", "4", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert float(rep["result"]["max_residual"]) < 1e-6


def test_counterexamples_command(capsys):
    code, out = run_cli(["counterexamples"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert lines and all(ln.startswith("[PASS]") for ln in lines)
    assert report_digest(code, out, ["counterexamples"]) == GOLDEN["counterexamples"]


def child_env() -> dict:
    """The environment of a child interpreter, able to import the package under test."""
    src = str(Path(polydarboux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "polydarboux.cli", "--version"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "polydarboux" in proc.stdout


def test_precondition_failures_exit_one(capsys):
    assert run_cli(["canonical", "poly", "1", "1", "2"], capsys)[0] == 1
    assert run_cli(["darboux", CORPUS["appendix_a2.json"]], capsys)[0] == 1


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("command", ["analyze", "darboux"])
def test_forms_below_degree_two_are_refused_by_name(tmp_path, capsys, degree, command):
    path = tmp_path / f"degree{degree}.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "scalar_form", "dim": 3,
                                "degree": degree,
                                "terms": [{"indices": list(range(1, degree + 1)),
                                           "coefficient": "1"}]}))
    assert main([command, str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"degree {degree}" in captured.err and "degree at least 2" in captured.err
    assert "Traceback" not in captured.err and "contraction level" not in captured.err


def test_a_degree_one_multi_model_is_refused(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["canonical", "multi", "1", "1", "0", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "degree 1" in captured.err and "degree at least 2" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, degree, r", [
    ("analyze", 1, 1), ("darboux", 1, 1), ("analyze", 0, 1), ("darboux", 0, 1),
    ("analyze", 1, None), ("analyze", 0, None)])
def test_flagged_forms_below_degree_two_are_refused_by_name(tmp_path, capsys, command, degree, r):
    """Degree 1 with r = 1 is the document ``canonical multi 1 1 0 1`` used to write;
    ``analyze`` exited 3 on it.  Without r, ``analyze`` reads r off the form."""
    path = tmp_path / f"degree{degree}.json"
    doc = {"schema_version": "1", "kind": "scalar_form", "dim": 3, "degree": degree,
           "flag": {"vertical_indices": [1, 3], "splitting": [["0", "1", "0"]]},
           "terms": [{"indices": [3][:degree], "coefficient": "1"}]}
    if r is not None:
        doc["r"] = r
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"degree {degree}" in captured.err and "degree at least 2" in captured.err
    assert "Traceback" not in captured.err and "internal consistency" not in captured.err


@pytest.mark.parametrize("kind, fields", [
    ("scalar_form", {"degree": 2, "terms": [{"indices": [1, 2], "coefficient": "1"}]}),
    ("vector_valued_form", {"degree": 2, "value_dim": 2,
                            "terms": [{"indices": [1, 2], "coefficient": "1"}]}),
    ("poly_form", {"degree": 0, "split": [1, 1], "terms": []}),
    ("lie_algebra", {"structure_constants": []}),
])
def test_declared_dimension_beyond_the_budget_exits_one(tmp_path, capsys, kind, fields):
    """R^200000 is refused while parsing; it used to run out of memory."""
    from polydarboux.io import MAX_DIM
    assert MAX_DIM >= 1024
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": kind, "dim": 200000, **fields}))
    command = "homotopy" if kind == "poly_form" else "analyze"
    assert main([command, str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_DIM" in captured.err and str(MAX_DIM) in captured.err


def test_lie_algebra_beyond_its_budget_exits_one_before_the_tensor(tmp_path, capsys):
    from polydarboux.io import MAX_LIE_DIM
    assert MAX_LIE_DIM == 16
    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "lie_algebra",
                                "dim": MAX_LIE_DIM + 1, "structure_constants": []}))
    started = time.monotonic()
    assert main(["analyze", str(path), "--json"]) == 1
    assert time.monotonic() - started < 0.5  # dim 17 takes about 0.1 s once the tensor is built
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_LIE_DIM" in captured.err and str(MAX_LIE_DIM) in captured.err


def test_lie_algebra_at_its_budget_parses():
    from polydarboux.io import MAX_LIE_DIM, parse_document
    doc = parse_document({"schema_version": "1", "kind": "lie_algebra", "dim": MAX_LIE_DIM,
                          "structure_constants": [{"indices": [1, 2, 3], "value": "1"},
                                                  {"indices": [2, 1, 3], "value": "-1"}]})
    assert doc.payload.dim == MAX_LIE_DIM


@pytest.mark.parametrize("coefficient", ['"' + "7" * 5000 + '"', "7" * 5000,
                                         '"' + "x" * 5000 + '"'])
def test_huge_coefficient_exits_two_with_a_short_message(tmp_path, capsys, coefficient):
    """Past Python's int-string limit, as a string or a bare JSON number, or not a number."""
    path = tmp_path / "huge.json"
    path.write_text('{"schema_version": "1", "kind": "scalar_form", "dim": 2, "degree": 2, '
                    '"terms": [{"indices": [1, 2], "coefficient": %s}]}' % coefficient)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("document error")
    assert "Traceback" not in captured.err
    assert len(captured.err.encode()) < 300


def test_deeply_nested_document_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"schema_version": "1", "kind": "scalar_form", "dim": 2, "degree": 2, '
                    '"terms": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("document error: invalid JSON")


@pytest.mark.parametrize("model", [["poly", "30", "1", "15"], ["multi", "20", "20", "10", "5"],
                                   ["poly", "1", "100000000", "1"]])
def test_canonical_model_beyond_the_budget_exits_one(capsys, model):
    """The dimension is counted before any form is built; these used to run for ever."""
    started = time.monotonic()
    assert main(["canonical", *model, "--shuffle-seed", "3"]) == 1
    assert time.monotonic() - started < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "MAX_DIM" in captured.err and "1024" in captured.err


def test_canonical_model_at_the_budget_is_written(tmp_path, capsys):
    """poly 32 31 1 is 32 + 31 * 32 = MAX_DIM coordinates, with value_dim 31; the document
    it writes parses within both budgets."""
    from polydarboux.io import MAX_DIM, load_document
    out = tmp_path / "big.json"
    assert main(["canonical", "poly", "32", "31", "1", "--shuffle-seed", "3",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["dim"], doc["value_dim"]) == (MAX_DIM, 31)
    assert load_document(out).payload.value_dim == 31


@pytest.mark.parametrize("nhat", ["101", "1023"])
def test_canonical_model_beyond_the_value_budget_exits_one(tmp_path, capsys, nhat):
    """poly 1 1023 1 is dim 1 024, within MAX_DIM, but analyze and darboux refuse its
    value_dim, so canonical refuses it by name and writes nothing."""
    out = tmp_path / "wide.json"
    assert main(["canonical", "poly", "1", nhat, "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert f"value dimension {nhat} exceeds the budget of 100 (MAX_VALUE_DIM)" in captured.err


@pytest.mark.parametrize("target", ["missing/model.json", "."])
def test_canonical_to_an_unwritable_path_exits_one(tmp_path, capsys, target):
    """A target in a directory that does not exist, or a directory itself, is refused with
    the path named on stderr, as the reader names a path it cannot read."""
    out = tmp_path / target
    assert main(["canonical", "poly", "1", "1", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists() and list(tmp_path.iterdir()) == []


def test_declared_dimension_at_the_budget_parses():
    from polydarboux.io import MAX_DIM, parse_document
    doc = parse_document({"schema_version": "1", "kind": "scalar_form", "dim": MAX_DIM,
                          "degree": 2, "terms": [{"indices": [1, MAX_DIM], "coefficient": "1"}]})
    assert doc.payload.dim == MAX_DIM


def test_reports_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "polydarboux.cli", "analyze",
           CORPUS["appendix_a3.json"], "--json", "--seed", "9"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    second = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_absence_is_distinguished_from_not_found(capsys):
    _, out = run_cli(["analyze", CORPUS["appendix_a3.json"], "--json"], capsys)
    rep = json.loads(out)
    assert any("proved absent" in d for d in rep["result"]["diagnostics"])


def _flagged_document(tmp_path, capsys) -> dict:
    path = tmp_path / "multi.json"
    assert run_cli(["canonical", "multi", "1", "2", "2", "2", "-o", str(path)], capsys)[0] == 0
    return json.loads(path.read_text())


def test_malformed_fields_exit_two(tmp_path, capsys):
    doc = _flagged_document(tmp_path, capsys)
    bad_vertical = dict(doc, flag=dict(doc["flag"], vertical_indices=[1, 99]))
    bad_splitting = dict(doc, flag=dict(doc["flag"], splitting=[["1"]]))
    bad_frame = dict(doc, frame=5)
    for bad in (bad_vertical, bad_splitting, bad_frame, dict(doc, r="2"), dict(doc, r=2.0)):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        for command in ("analyze", "symbol"):
            assert main([command, str(path)]) == 2, (command, bad)
            assert "document error" in capsys.readouterr().err


@pytest.mark.parametrize("r", [0, -1])
def test_darboux_refuses_r_below_one_as_symbol_does(tmp_path, capsys, r):
    """``darboux`` said the quotient was too small for these."""
    path = tmp_path / "multi.json"
    path.write_text(json.dumps(dict(_flagged_document(tmp_path, capsys), r=r)))
    for command in ("darboux", "symbol"):
        assert main([command, str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == "error: horizontality parameter out of range"


def test_analyze_refuses_a_negative_r_whatever_the_quotient(tmp_path, capsys):
    """``multi 1 2 2 2`` was answered by the width of its quotient, ``multi 1 5 2 2`` refused;
    r = 0 is still answered as outside the admissible range."""
    for model in (["1", "2", "2", "2"], ["1", "5", "2", "2"]):
        path = tmp_path / "multi.json"
        assert run_cli(["canonical", "multi", *model, "-o", str(path)], capsys)[0] == 0
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, r=-1)))
        assert main(["analyze", str(path), "--json"]) == 1, model
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == "error: horizontality parameter out of range"
        path.write_text(json.dumps(dict(doc, r=0)))
        code, out = run_cli(["analyze", str(path), "--json"], capsys)
        assert code == 0, model
        assert ("form is outside the admissible horizontality range"
                in json.loads(out)["result"]["diagnostics"])


@pytest.mark.parametrize("model", [["poly", "3", "1", "2"], ["multi", "1", "2", "2", "2"],
                                   ["poly", "3", "2", "1"]])
@pytest.mark.parametrize("samples, message", [
    ("0", "sample count must be positive"),
    ("-3", "sample count must be positive"),
    ("1000000000", "1000000000 samples exceed the budget of 10000 (MAX_RANK_SAMPLES)"),
])
def test_analyze_refuses_samples_outside_the_budget_for_every_kind(tmp_path, capsys, model,
                                                                  samples, message):
    """A one-component 3-form and a flagged form are not sampled, and were answered with exit 0."""
    path = str(tmp_path / "model.json")
    assert run_cli(["canonical", *model, "--shuffle-seed", "3", "-o", path], capsys)[0] == 0
    assert main(["analyze", path, "--samples", samples, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == f"error: {message}"
    assert run_cli(["analyze", path, "--samples", "1", "--json"], capsys)[0] == 0


@pytest.mark.parametrize("model", [["poly", "2", "2", "1"], ["poly", "3", "1", "2"],
                                   ["multi", "1", "2", "2", "2"]])
def test_darboux_exits_3_when_the_pullback_check_fails(tmp_path, capsys, monkeypatch, model):
    path = str(tmp_path / "model.json")
    assert run_cli(["canonical", *model, "--shuffle-seed", "3", "-o", path], capsys)[0] == 0
    assert run_cli(["darboux", path, "--json"], capsys)[0] == 0
    corrupt_first_basis_column(monkeypatch)
    assert main(["darboux", path, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == ("internal consistency failure: constructed basis "
                                            "does not reproduce the model coefficients")


@pytest.mark.parametrize("field, value, message", [
    ("frame", 5, "frame must be a list of lists, got 5"),
    ("frame", [5], "frame must be a list of lists, got [5]"),
    ("structure_constants", [{"indices": [1, 2], "value": "1"}],
     "indices must be three integers, got [1, 2]"),
])
def test_frames_and_structure_constants_are_refused_by_name(tmp_path, capsys, field, value,
                                                          message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(json.loads(Path(CORPUS["su2_frame.json"]).read_text()),
                                    **{field: value})))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"document error: {message}"


FLAGGED = {"schema_version": "1", "kind": "scalar_form", "dim": 3, "degree": 2, "r": 1,
           "terms": [{"indices": [1, 2], "coefficient": "1"}],
           "flag": {"vertical_indices": [1]}}


@pytest.mark.parametrize("source, command, where, value", [
    ("appendix_a1.json", "analyze", ("dim",), 4.7),
    ("appendix_a1.json", "darboux", ("dim",), "4"),
    ("appendix_a1.json", "analyze", ("dim",), True),
    ("appendix_a1.json", "analyze", ("degree",), 2.0),
    ("appendix_a1.json", "analyze", ("value_dim",), "2"),
    ("appendix_a1.json", "analyze", ("terms", 0, "component"), 1.0),
    ("appendix_a1.json", "darboux", ("terms", 0, "indices"), "12"),
    ("appendix_a1.json", "analyze", ("terms", 0, "indices", 1), 2.0),
    ("appendix_a1.json", "analyze", ("terms", 0, "indices", 0), True),
    ("flagged", "analyze", ("flag", "vertical_indices"), "1"),
    ("flagged", "analyze", ("flag", "vertical_indices", 0), 1.0),
    ("perturbed_multisymplectic.json", "homotopy", ("split",), "33"),
    ("perturbed_multisymplectic.json", "homotopy", ("split", 0), 3.0),
    ("perturbed_multisymplectic.json", "homotopy", ("terms", 0, "indices"), "123"),
    ("perturbed_multisymplectic.json", "homotopy",
     ("terms", 0, "polynomial", 0, "exponents", 2), "1"),
    ("perturbed_multisymplectic.json", "moser",
     ("terms", 0, "polynomial", 0, "exponents"), 0),
    ("su2_frame.json", "analyze", ("structure_constants", 0, "indices"), "123"),
    ("su2_frame.json", "analyze", ("structure_constants", 0, "indices", 2), 3.0),
    # list fields: an object or a string is refused even when empty, not read as no terms
    ("appendix_a1.json", "analyze", ("terms",), {}),
    ("appendix_a1.json", "darboux", ("terms",), ""),
    ("flagged", "analyze", ("terms",), {}),
    ("perturbed_multisymplectic.json", "homotopy", ("terms",), {}),
    ("perturbed_multisymplectic.json", "moser", ("terms", 0, "polynomial"), {}),
    ("su2_frame.json", "analyze", ("structure_constants",), {}),
    ("su2_frame.json", "analyze", ("structure_constants", 0, "indices", 0), 0),
])
def test_integer_fields_are_checked_not_coerced(tmp_path, capsys, source, command, where,
                                                value):
    doc = json.loads(json.dumps(FLAGGED) if source == "flagged"
                     else Path(CORPUS[source]).read_text())
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) != 2, "the unmodified document parses"
    capsys.readouterr()
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert "document error" in capsys.readouterr().err


def test_malformed_poly_documents_exit_two(tmp_path, capsys):
    def poly_doc(indices, split=(1, 1), exponents=(0, 0)):
        return {"schema_version": "1", "kind": "poly_form", "dim": 2, "degree": 2,
                "split": list(split), "terms": [{"indices": indices, "polynomial": [
                    {"exponents": list(exponents), "coefficient": "1"}]}]}
    index_above_dim = poly_doc([2, 5])
    index_zero = poly_doc([0, 1])
    negative_split = dict(poly_doc([1, 2]), split=[3, -1])
    negative_exponent = poly_doc([1, 2], exponents=(-1, 0))
    path = tmp_path / "bad.json"
    for bad in (index_above_dim, index_zero, negative_split, negative_exponent):
        path.write_text(json.dumps(bad))
        for command in ("homotopy", "moser"):
            assert main([command, str(path)]) == 2, (command, bad)
            assert "document error" in capsys.readouterr().err
    path.write_text(json.dumps(poly_doc([1, 2])))
    assert main(["homotopy", str(path), "--json"]) == 0


def _poly_doc(indices, exponents=(0, 0)) -> dict:
    return {"schema_version": "1", "kind": "poly_form", "dim": 2, "degree": 2, "split": [1, 1],
            "terms": [{"indices": indices, "polynomial": [
                {"exponents": list(exponents), "coefficient": "1"}]}]}


def _scalar_doc(indices, coefficient="1") -> dict:
    return {"schema_version": "1", "kind": "scalar_form", "dim": 4, "degree": 2,
            "terms": [{"indices": indices, "coefficient": coefficient}]}


@pytest.mark.parametrize("doc, message", [
    (_poly_doc([True, 2]), "indices must be a list of integers, got [True, 2]"),
    (_poly_doc([1.0, 2]), "indices must be a list of integers, got [1.0, 2]"),
    (_poly_doc(["1", 2]), "indices must be a list of integers, got ['1', 2]"),
    (_poly_doc([0, 1]), "indices [0, 1] leave the coordinates 1..2"),
    (_poly_doc([2, 3]), "indices [2, 3] leave the coordinates 1..2"),
    (_poly_doc([1, 2], exponents=(0, -1)), "exponents must be nonnegative: (0, -1)"),
    (_scalar_doc([0, 1]), "indices [0, 1] leave the coordinates 1..4"),
    (_scalar_doc([-2, 1]), "indices [-2, 1] leave the coordinates 1..4"),
    (_scalar_doc([1, 5], "0"), "indices [1, 5] leave the coordinates 1..4"),
    (_scalar_doc([3, 5]), "indices [3, 5] leave the coordinates 1..4"),
])
def test_integer_lists_are_refused_with_their_texts(doc, message):
    from polydarboux.errors import DocumentError
    from polydarboux.io import parse_document
    with pytest.raises(DocumentError) as err:
        parse_document(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["scalar_form", "vector_valued_form", "poly_form"])
def test_terms_that_are_not_objects_are_refused_by_name(tmp_path, capsys, kind):
    head = {"schema_version": "1", "kind": kind, "dim": 2, "degree": 1}
    if kind == "poly_form":
        head["split"] = [1, 1]
        good = {"indices": [1], "polynomial": [{"exponents": [0, 0], "coefficient": "1"}]}
    else:
        head["value_dim"] = 1 if kind == "scalar_form" else 2
        good = {"indices": [1], "coefficient": "1"}
    cases = [([good, 5], "term must be a JSON object, got 5"),
             ([good, "indices"], "term must be a JSON object, got 'indices'")]
    if kind == "poly_form":
        cases += [([{"indices": [2], "polynomial": [5]}], "monomial must be a JSON object, got 5"),
                  ([good, {"indices": [2], "polynomial": ["exponents"]}],
                   "monomial must be a JSON object, got 'exponents'")]
    path = tmp_path / "doc.json"
    for terms, message in cases:
        path.write_text(json.dumps({**head, "terms": terms}))
        assert main(["homotopy" if kind == "poly_form" else "analyze", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err.splitlines()[0]) == ("", f"document error: {message}")


@pytest.mark.parametrize("given_as", ["document", "option"])
def test_homotopy_takes_r_zero_as_given(tmp_path, capsys, given_as):
    """r = 0 is a value, not an absent r: d(x1 x3 dx4) on R^2 x R^2 carries one
    vertical differential, so the primitive is refused however r = 0 is given."""
    from polydarboux.io import poly_form_to_document
    from polydarboux.polyforms import PolyForm, exterior_d, poly_from_terms
    omega = exterior_d(PolyForm(4, 1, (2, 2), {0b1000: poly_from_terms(4, {(1, 0, 1, 0): 1})}))
    doc = poly_form_to_document(omega)
    if given_as == "document":
        doc["r"] = 0
    path = tmp_path / "r0.json"
    path.write_text(json.dumps(doc))
    argv = ["homotopy", str(path), "--json"] + (["--r", "0"] if given_as == "option" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a monomial carries more than 0 vertical differentials" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("given_as", ["document", "option"])
def test_homotopy_refuses_a_negative_r_by_name(tmp_path, capsys, given_as):
    """A negative vertical bound is refused as such, before any other check."""
    from polydarboux.io import poly_form_to_document
    from polydarboux.polyforms import PolyForm, exterior_d, poly_from_terms
    omega = exterior_d(PolyForm(4, 1, (2, 2), {0b1000: poly_from_terms(4, {(1, 0, 1, 0): 1})}))
    doc = poly_form_to_document(omega)
    if given_as == "document":
        doc["r"] = -1
    path = tmp_path / "r-negative.json"
    path.write_text(json.dumps(doc))
    argv = ["homotopy", str(path), "--json"] + (["--r", "-1"] if given_as == "option" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the vertical bound r must be nonnegative, got -1" in captured.err
    assert "vertical differentials" not in captured.err
    assert "Traceback" not in captured.err


def test_repeated_monomials_add_up(tmp_path):
    from polydarboux.io import load_document
    doc = {"schema_version": "1", "kind": "poly_form", "dim": 2, "degree": 2, "split": [1, 1],
           "terms": [{"indices": [1, 2], "polynomial": [
               {"exponents": [0, 0], "coefficient": "1"}, {"exponents": [0, 0], "coefficient": "2"},
               {"exponents": [1, 0], "coefficient": "1/2"}, {"exponents": [1, 0], "coefficient": "-1/2"}]}]}
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    omega = load_document(path).payload
    assert omega.coeffs[0b11].terms == {(0, 0): Fraction(3)}


@pytest.mark.parametrize("command", ["analyze", "darboux", "homotopy", "moser"])
def test_each_run_reads_its_input_once(tmp_path, capsys, monkeypatch, command):
    """The report's input digest is that of the bytes parsed: the file is opened once."""
    import builtins
    import io as stdlib_io
    poly = command in ("homotopy", "moser")
    source = CORPUS["perturbed_multisymplectic.json" if poly else "canonical_poly_2_2_1.json"]
    extra = ["--steps", "2"] if command == "moser" else []
    path = tmp_path / "input.json"
    path.write_bytes(Path(source).read_bytes())
    opened = []
    real_open = stdlib_io.open

    def counting_open(file, *args, **kwargs):
        if Path(file) == path:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(stdlib_io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, out = run_cli([command, str(path), "--json", *extra], capsys)
    assert code == 0 and len(opened) == 1
    assert json.loads(out)["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_undecodable_bytes_exit_two(tmp_path, capsys):
    """Bytes the locale's encoding cannot read are refused as a document, not a traceback."""
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"description": "\xff"}')
    try:
        path.read_text()
    except UnicodeDecodeError as exc:
        want = f"document error: invalid JSON in {path}: {exc}"
    else:
        pytest.skip("the locale's encoding reads every byte")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == want


def test_moser_rejects_bad_radius(capsys):
    # from 1.3407807929942597e154 on the square of the radius overflows, and with it the
    # norm of a draw near the sphere: such a radius is refused before the first draw
    doc = CORPUS["perturbed_multisymplectic.json"]
    for radius in ("0", "-1", "nan", "inf", "1.3407807929942597e154", "1e155", "1e300"):
        assert main(["moser", doc, "--steps", "2", "--samples", "1", "--radius", radius]) == 1
        assert "radius" in capsys.readouterr().err


def test_moser_refuses_points_whose_systems_overflow():
    # the flow from points this far out overflows the deformation systems.  No lstsq call
    # sees an inf or NaN, on which LAPACK writes to stdout and numpy raises, and the overflow
    # is not warned of: each run, in a child interpreter with the default warning filters,
    # exits 1 on the first point that is not finite with that error alone on stderr
    doc = CORPUS["perturbed_multisymplectic.json"]
    for radius, t in [("1e21", "0.0005"), ("1e25", "0.0005"), ("1e100", "0.0"),
                      ("1e154", "0.0")]:
        proc = subprocess.run([sys.executable, "-m", "polydarboux.cli", "moser", doc,
                               "--radius", radius], capture_output=True, text=True,
                              env=child_env())
        assert (proc.returncode, proc.stdout) == (1, ""), radius
        error, elapsed = proc.stderr.splitlines()
        assert error == f"error: deformation system is not finite at t={t}", radius
        assert elapsed.startswith("elapsed: "), radius


@pytest.mark.parametrize("terms", [
    # the constant coefficient of A0 is beyond the largest float
    [((0, 0), "1e400")],
    # 1e308 x1^2 fits, the weight 2e308 of its partial derivative along x1 does not
    [((0, 0), "1"), ((2, 0), "1e308")],
])
def test_moser_refuses_coefficients_beyond_the_float_range(tmp_path, terms):
    # run as the user runs it: exit 1 with the error alone on stderr, no traceback
    doc = _moser_poly_document(tmp_path / "huge.json", 2, [1, 1], [([1, 2], terms)])
    proc = subprocess.run([sys.executable, "-m", "polydarboux.cli", "moser", doc,
                           "--steps", "2"], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    error, elapsed = proc.stderr.splitlines()
    assert error == ("error: a coefficient of the deformation system or of one of its "
                     "partial derivatives is too large for a float")
    assert elapsed.startswith("elapsed: ")


def test_moser_rejects_bad_sample_count(capsys):
    doc = CORPUS["perturbed_multisymplectic.json"]
    for samples in ("0", "-3"):
        assert main(["moser", doc, "--steps", "2", "--samples", samples]) == 1
        err = capsys.readouterr().err
        assert "sample count must be at least 1" in err
        assert "Traceback" not in err


def _constant_poly_document(path: Path, dim: int) -> str:
    """The constant form dx^1 ^ dx^(dim/2 + 1) on R^dim."""
    half = dim // 2
    path.write_text(json.dumps({
        "schema_version": "1", "kind": "poly_form", "dim": dim, "degree": 2, "split": [half, half],
        "terms": [{"indices": [1, half + 1],
                   "polynomial": [{"exponents": [0] * dim, "coefficient": "1"}]}]}))
    return str(path)


def test_moser_refuses_a_ball_it_cannot_sample_within_seconds(tmp_path, capsys):
    # at d = 24 about one cube draw in 10^10 lands in the ball: the draws are budgeted
    doc = _constant_poly_document(tmp_path / "d24.json", 24)
    started = time.monotonic()
    assert main(["moser", doc, "--steps", "10", "--samples", "3"]) == 1
    assert time.monotonic() - started < 10
    out, err = capsys.readouterr()
    assert out == ""
    assert "100000 draws" in err and "(MAX_BALL_DRAWS)" in err
    assert "Traceback" not in err


def test_moser_refuses_a_flow_beyond_the_point_step_budget(capsys):
    # 10^8 steps of the default ten samples would run for days
    started = time.monotonic()
    assert main(["moser", CORPUS["perturbed_multisymplectic.json"], "--steps", "100000000"]) == 1
    assert time.monotonic() - started < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert ("100000000 steps of 10 samples exceed the budget of 60000 point steps "
            "(MAX_POINT_STEPS)") in err
    assert "Traceback" not in err


def test_moser_sample_count_meets_the_budget_before_any_draw(tmp_path, capsys):
    # on the d = 24 document a draw would run into MAX_BALL_DRAWS first
    doc = _constant_poly_document(tmp_path / "d24.json", 24)
    started = time.monotonic()
    assert main(["moser", doc, "--samples", "10001"]) == 1
    assert time.monotonic() - started < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert "10001 samples exceed the budget of 10000 (MAX_RANK_SAMPLES)" in err
    assert "MAX_BALL_DRAWS" not in err and "Traceback" not in err


@pytest.mark.parametrize("dim, degree, split, message", [
    (0, 2, [0, 0], "the flow needs a nonzero form, got the zero 2-form on R^0"),
    (1, 2, [1, 0], "the flow needs a nonzero form, got the zero 2-form on R^1"),
])
def test_moser_refuses_forms_without_a_flow_by_name(tmp_path, capsys, dim, degree, split, message):
    """A form on R^0 and a zero form whose degree exceeds the dimension: both used to end
    in a ValueError traceback inside the flow."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "poly_form", "dim": dim,
                                "degree": degree, "split": split, "terms": []}))
    assert main(["moser", str(path), "--steps", "2", "--samples", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "Traceback" not in err


def _moser_poly_document(path: Path, degree: int, split: list, terms: list) -> str:
    """A poly_form on R^2 from (indices, [(exponents, coefficient), ...]) terms."""
    path.write_text(json.dumps({
        "schema_version": "1", "kind": "poly_form", "dim": 2, "degree": degree, "split": split,
        "terms": [{"indices": indices, "polynomial": [
            {"exponents": list(e), "coefficient": c} for e, c in poly]}
                  for indices, poly in terms]}))
    return str(path)


@pytest.mark.parametrize("degree, split, terms, message", [
    # (1 + x1) dx1^dx2 on R^2 x R^0: no fiber column, so nothing solves the x1 dx2 row
    (2, [2, 0], [([1, 2], [((0, 0), "1"), ((1, 0), "1")])],
     "deformation solve residual 9.889e-04 exceeds 1.0e-10"),
    # x1 dx1^dx2 on R^1 x R^1 vanishes at the origin, where the flow starts
    (2, [1, 1], [([1, 2], [((1, 0), "1")])], "deformation system is singular at t=0.0"),
    # 2 x1 dx1 = d(x1^2) contracts to zero along the fiber
    (1, [1, 1], [([1], [((1, 0), "2")])], "deformation system is singular at t=0.0"),
])
def test_moser_names_a_degenerate_system(tmp_path, capsys, degree, split, terms, message):
    doc = _moser_poly_document(tmp_path / "degenerate.json", degree, split, terms)
    assert main(["moser", doc, "--steps", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {message}\n" in err and "Traceback" not in err


def test_moser_flows_a_constant_form_without_fiber_directions(tmp_path, capsys):
    # dx1^dx2 on R^2 x R^0: a 0 x 0 system at every point, and the flow is the identity
    doc = _moser_poly_document(tmp_path / "constant.json", 2, [2, 0], [([1, 2], [((0, 0), "1")])])
    code, out = run_cli(["moser", doc, "--steps", "2", "--json"], capsys)
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["residuals"] == ["0.000000e+00"] * 10
    assert (rep["max_residual"], rep["min_jacobian_det"]) == ("0.000000e+00", "1.000000")


def test_moser_rejects_bad_solve_tolerance(capsys):
    doc = CORPUS["perturbed_multisymplectic.json"]
    for tol in ("nan", "inf", "0", "-1e-10"):
        assert main(["moser", doc, "--steps", "2", "--samples", "1", f"--tol={tol}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "solve tolerance must be positive and finite" in err


# ---------------------------------------------------------------------------
# byte-identity goldens: sha256 of exit code, stdout and any written file,
# recorded before the exact primitives and the report writer were rewritten.
# moser is left out: its float digits depend on the BLAS build and its LAPACK solves (see
# MOSER_GOLDEN); its powers are running products x * x * ..., which round alike everywhere.


def _closed_poly_document(path: Path) -> str:
    """d(beta) for a fixed polynomial 2-form beta on R^3 x R^2, with r = 2."""
    from polydarboux.io import poly_form_to_document
    from polydarboux.polyforms import PolyForm, exterior_d, poly_from_terms
    def poly(terms):
        return poly_from_terms(5, {e: Fraction(c) for e, c in terms.items()})
    beta = PolyForm(5, 2, (3, 2), {
        0b00011: poly({(1, 0, 2, 0, 1): "3/7", (0, 2, 0, 0, 0): -2}),
        0b01001: poly({(0, 1, 0, 1, 0): "5/3", (2, 0, 0, 0, 3): "-1/1000000000007"}),
        0b00110: poly({(0, 0, 0, 2, 1): 1, (1, 1, 1, 0, 0): "9/4"}),
        0b10100: poly({(3, 0, 0, 0, 0): "1/2"}),
    })
    doc = poly_form_to_document(exterior_d(beta))
    doc["r"] = 2
    path.write_text(json.dumps(doc))
    return str(path)


def golden_cases(tmp: Path) -> list:
    """(name, argv) pairs in run order; later cases read files earlier ones wrote."""
    multi = str(tmp / "multi.json")
    poly = str(tmp / "poly.json")
    closed = _closed_poly_document(tmp / "closed.json")
    return [
        ("analyze_a1", ["analyze", CORPUS["appendix_a1.json"], "--json"]),
        ("analyze_a2_text", ["analyze", CORPUS["appendix_a2.json"], "--seed", "5"]),
        ("analyze_a3", ["analyze", CORPUS["appendix_a3.json"], "--json", "--seed", "9"]),
        ("analyze_canonical", ["analyze", CORPUS["canonical_poly_2_2_1.json"], "--json"]),
        ("darboux_canonical", ["darboux", CORPUS["canonical_poly_2_2_1.json"], "--json"]),
        ("canonical_poly_stdout", ["canonical", "poly", "2", "2", "1"]),
        ("canonical_poly_file", ["canonical", "poly", "3", "2", "1", "--shuffle-seed", "7", "-o", poly]),
        ("canonical_multi_file", ["canonical", "multi", "1", "2", "2", "2", "--shuffle-seed", "3",
                                  "-o", multi]),
        ("analyze_poly", ["analyze", poly, "--json", "--samples", "20"]),
        ("darboux_poly", ["darboux", poly, "--json"]),
        ("analyze_multi", ["analyze", multi, "--json"]),
        ("darboux_multi", ["darboux", multi]),
        ("symbol_multi", ["symbol", multi]),
        ("homotopy_perturbed", ["homotopy", CORPUS["perturbed_multisymplectic.json"], "--json"]),
        ("homotopy_perturbed_text", ["homotopy", CORPUS["perturbed_multisymplectic.json"]]),
        ("homotopy_closed", ["homotopy", closed, "--json"]),
        ("homotopy_closed_r3", ["homotopy", closed, "--r", "3", "--json"]),
    ]


def report_digest(code: int, stdout: str, argv: list) -> str:
    h = hashlib.sha256(f"{code}\n{stdout}".encode())
    if "-o" in argv:
        h.update(Path(argv[argv.index("-o") + 1]).read_bytes())
    return h.hexdigest()


GOLDEN = {
    "analyze_a1": "eb85d56b70d88c83b34d74ac7df428ea19266d3d911a15b844e1fb6a415c7d33",
    "analyze_a2_text": "7a6278b4d251dd83f301654bef0bca015dbd39a34573899abe7827203e9911b5",
    "analyze_a3": "ca0b1185d84868fa1f03e5162799812b6f2cca3aa5bca36eacee452fe38ce8d6",
    "analyze_canonical": "45e71b9337171b806905390ebefc76e7e5d47bed2edd66f6bd046f103b636fb5",
    "darboux_canonical": "3367172c4f54edafdb63c509e9fc03a2665396d11bed29b97a3bd06799c71007",
    "canonical_poly_stdout": "3f822e15a325ac445de74d3dd0e470c8c0ca8e739d9613e670fd408bd32ae4f5",
    "canonical_poly_file": "cc853cd0af2421624a9abd22c7025ff493789a15db43969f1a8f08bec729e355",
    "canonical_multi_file": "115ae3f57036c22b72352e3f02c95ea0126746266c469118810e925102edc113",
    "analyze_poly": "15664054a712703ae3c884b46372fa832b6592fc81475e48891deeecb0c71c55",
    "darboux_poly": "41151c90e4844a50e92e8d53e6f80f0c831e447d23fa20817d24d710cc89bd4f",
    "analyze_multi": "308d31c2316ab8093f9c9939c9c3cde55d540d1f8e42ef770d664842634d8b5d",
    "darboux_multi": "18ed13d223d10e7166244ee382525c4e9429687e2a3c4b31e1633add57efbed2",
    "symbol_multi": "764a5ac3fca7af7841cadf8c110db56c271ab6d2353dd3fe73c1b70c33309646",
    "homotopy_perturbed": "7b2f6f844928b1a1eb2ff0272426cc045788897e37bca9411583644a1486c0fe",
    "homotopy_perturbed_text": "2c25b9e954b7881a36aea7c18d737cb90508fc0bdc6e401d41c3840c3ad33537",
    "homotopy_closed": "523c16c78cc23996807916633e50fc5dd6497a5f93f7fd117de7f5134b04238e",
    "homotopy_closed_r3": "80160fdddde21b07997d9bab2ab7237c89795c258ff404e8118a704bc3f143e4",
    "counterexamples": "7f83c6426b75e8ef39ef9c4fe438931f4a0f134f2bd88a273519f53dc6b3c1ac",
}


def test_reports_match_goldens(tmp_path, capsys):
    cases = golden_cases(tmp_path)
    assert [name for name, _ in cases] + ["counterexamples"] == list(GOLDEN)
    for name, argv in cases:
        code, out = run_cli(argv, capsys)
        assert report_digest(code, out, argv) == GOLDEN[name], name


def test_one_parser_serves_every_command_in_a_process(tmp_path, capsys, monkeypatch):
    """Every subcommand in sequence, with --version and a bad argument between each."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "polydarboux":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    cases = golden_cases(tmp_path) + [("counterexamples", ["counterexamples"]),
                                      ("moser", ["moser", CORPUS["perturbed_multisymplectic.json"],
                                                 "--steps", "5", "--samples", "2"])]
    for name, argv in cases:
        code, out = run_cli(argv, capsys)
        assert (code == 0 if name == "moser"
                else report_digest(code, out, argv) == GOLDEN[name]), name
        with pytest.raises(SystemExit) as version:
            main(["--version"])
        assert version.value.code == 0
        assert capsys.readouterr().out == f"polydarboux {polydarboux.__version__}\n"
        with pytest.raises(SystemExit) as bad:
            main(argv + ["--no-such-flag"])
        assert bad.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert len(built) == 1


def test_a_command_rebound_after_the_parser_is_built_runs(monkeypatch, capsys):
    assert run_cli(["canonical", "poly", "1", "1", "1"], capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.file) or 7)
    assert main(["analyze", "doc.json"]) == 7
    assert seen == ["doc.json"]


# moser tolerance goldens: float digits depend on the BLAS build, so the
# residuals are compared within 1e-12 and the 6-decimal Jacobian determinant
# exactly.  Recorded before the deformation step made one least-squares solve
# per point.  One coarse step at radius 0.8 keeps the residuals well above
# the roundoff floor.
MOSER_GOLDEN = {
    1: ("7.333646e-09", ["1.666973e-10", "7.333646e-09", "3.096907e-10", "2.267218e-09"],
        "0.940414"),
    2: ("3.172446e-09", ["2.564483e-10", "1.700079e-10", "1.457580e-09", "3.172446e-09"],
        "0.936737"),
    3: ("1.229609e-11", ["2.431154e-13", "6.513566e-12", "6.160884e-12", "1.229609e-11"],
        "0.994273"),
}


def test_moser_reports_match_tolerance_goldens(tmp_path, capsys):
    from polydarboux.io import poly_form_to_document
    from polydarboux.moser import perturbed_multisymplectic
    for seed, (max_residual, residuals, min_det) in MOSER_GOLDEN.items():
        doc = tmp_path / f"fixture{seed}.json"
        doc.write_text(json.dumps(poly_form_to_document(perturbed_multisymplectic(seed=seed).omega)))
        code, out = run_cli(["moser", str(doc), "--steps", "1", "--samples", "4", "--radius", "0.8",
                             "--seed", str(seed), "--json"], capsys)
        assert code == 0
        rep = json.loads(out)["result"]
        assert abs(float(rep["max_residual"]) - float(max_residual)) <= 1e-12, seed
        assert len(rep["residuals"]) == len(residuals)
        for got, want in zip(rep["residuals"], residuals):
            assert abs(float(got) - float(want)) <= 1e-12, seed
        assert rep["min_jacobian_det"] == min_det, seed


# darboux on multi models with r >= 2 and two or more vertical complement
# vectors: the lifted vertical vectors set the order of the basis columns.
# Digests of exit code and stdout, recorded before the lift was shared.
VERTICAL_ORDER_GOLDEN = {
    ("3", "2", "2", "2"): "e616ed3215c548e12a71587cfe8fdfaf222be6f6c89af19e615b0c6d7b62b0ab",
    ("2", "3", "2", "3"): "b573fbf12d9b19518d9ca465fb876dd5c664dbeebf2cd1e1548560439378f052",
}


def test_darboux_multi_keeps_the_vertical_column_order(tmp_path, capsys):
    for params, want in VERTICAL_ORDER_GOLDEN.items():
        doc = str(tmp_path / "multi.json")
        assert run_cli(["canonical", "multi", *params, "--shuffle-seed", "5", "-o", doc],
                       capsys)[0] == 0
        argv = ["darboux", doc]
        code, out = run_cli(argv, capsys)
        assert report_digest(code, out, argv) == want, params
