import json
import subprocess
import sys
from pathlib import Path

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


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "polydarboux.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "polydarboux" in proc.stdout


def test_precondition_failures_exit_one(capsys):
    assert run_cli(["canonical", "poly", "1", "1", "2"], capsys)[0] == 1
    assert run_cli(["darboux", CORPUS["appendix_a2.json"]], capsys)[0] == 1


def test_reports_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "polydarboux.cli", "analyze",
           CORPUS["appendix_a3.json"], "--json", "--seed", "9"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
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


def test_moser_rejects_bad_radius(capsys):
    doc = CORPUS["perturbed_multisymplectic.json"]
    for radius in ("0", "-1", "nan", "inf"):
        assert main(["moser", doc, "--steps", "2", "--samples", "1", "--radius", radius]) == 1
        assert "radius" in capsys.readouterr().err
