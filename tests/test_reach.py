"""Reach guard: every public function of the package is reached by a command.

Every public module-level function of ``polydarboux`` (defined in its module, not
imported into it) is wrapped, and ``cli.main`` runs every subcommand on the corpus,
``canonical poly`` and ``multi`` with ``--shuffle-seed`` and the other commands on what
they write, and ``moser`` with few steps.  The inputs that perfbench and
``tools/make_corpus.py`` build outside any command are built too.  A public function
that none of this reaches must be on ``UNREACHED``; one that only tests call belongs in
``tests/conftest.py``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

import polydarboux
from polydarboux import cli, darboux, exterior, moser
from polydarboux.corpus import corpus_files

# Public functions that no command reaches, each kept for a reason the commands do not show.
UNREACHED = {
    # paper criteria that the acceptance tests check directly
    "exterior.horizontal_dim", "lagrangian.check_multilagrangian",
    "lagrangian.symbol_structure_check", "polyforms.pf_contract_basis",
    # named in the perfbench tracer's SKIP set
    "exterior.basis_covector",
}


def public_functions() -> dict:
    out = {}
    for info in pkgutil.iter_modules(polydarboux.__path__):
        module = importlib.import_module(f"polydarboux.{info.name}")
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                out[fn] = f"{info.name}.{name}"
    return out


def command_lines(tmp) -> list:
    runs = []
    for path in corpus_files():
        runs += [["analyze", path, "--json"], ["darboux", path, "--json"], ["symbol", path],
                 ["homotopy", path, "--json"],
                 ["moser", path, "--steps", "2", "--samples", "2", "--json"]]
    written = {"poly": ["poly", "2", "2", "1"], "scalar": ["poly", "3", "1", "2"],
               "multi": ["multi", "1", "2", "2", "2"]}
    for name, model in written.items():
        doc = str(tmp / f"{name}.json")
        runs.append(["canonical", *model, "--shuffle-seed", "3", "-o", doc])
        runs += [["analyze", doc, "--json"], ["darboux", doc, "--json"], ["symbol", doc]]
    return runs + [["canonical", "multi", "1", "2", "2", "2"], ["counterexamples"]]


def reach(tmp, monkeypatch, capsys) -> tuple[set, set]:
    """The names of the public functions, and of those that the commands reach."""
    functions = public_functions()
    reached = set()

    def wrapped(fn, name):
        def call(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return call

    wrappers = {fn: wrapped(fn, name) for fn, name in functions.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "polydarboux":
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[value])
    # called through their modules, so that the wrappers see them
    darboux.conjugated_multi_instance(darboux.canonical_multi_model(1, 2, 2, 2), 3)
    moser.perturbed_multisymplectic()
    for argv in command_lines(tmp):
        assert cli.main(argv) in (0, 1), argv
    capsys.readouterr()
    return set(functions.values()), reached


def test_every_public_function_is_reached_or_listed(tmp_path, monkeypatch, capsys):
    names, reached = reach(tmp_path, monkeypatch, capsys)
    assert UNREACHED <= names
    assert not UNREACHED & reached, "reached now: take it off the list"
    assert names - reached <= UNREACHED, sorted(names - reached - UNREACHED)


def test_an_unreached_public_function_fails_the_guard(tmp_path, monkeypatch, capsys):
    def probe():
        """A public function that no command calls."""

    probe.__module__ = exterior.__name__
    monkeypatch.setattr(exterior, "probe", probe, raising=False)
    names, reached = reach(tmp_path, monkeypatch, capsys)
    assert names - reached - UNREACHED == {"exterior.probe"}
