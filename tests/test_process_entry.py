"""The CLI's process entry, ``cli.run``: ``python -m irrbase`` and the ``irrbase`` script
both call it, it freezes the collector once ``main`` is done, and what makes that safe holds.

``gc.freeze()`` moves every object still alive out of the cyclic collector's reach, so the
interpreter's shutdown collections do not walk them.  Garbage in a reference cycle is then
left to the OS unfinalized, which is safe only while no CLI path leaves a file in a cycle:
``test_cli_leaves_only_json_encoder_cycles`` pins that.
"""

import gc
import importlib
import io
import json
import re
import runpy
import shutil
import subprocess
import sys
import types

import pytest

from irrbase import cli
from irrbase.cli import main

from conftest import ROOT, bench_workloads

CLI = [sys.executable, "-m", "irrbase"]


def exit_code(argv) -> int:
    """``main(argv)``'s exit code, argparse's ``SystemExit`` (help, a malformed argv) too."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_main_in_process_never_freezes(tmp_path, capsys):
    """Callers that go on after ``main``, the tests among them, keep a collector that
    reaches every object: only the process entry freezes."""
    cert = str(tmp_path / "c.json")
    before = gc.get_freeze_count()
    for argv, code in [(["chain", "--family", "affine", "--p", "3", "--d", "2", "--out", cert], 0),
                       (["verify", cert], 0),
                       (["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "6"], 0),
                       (["bounds", "--n", "9"], 0),
                       (["chain", "--family", "affine", "--p", "3", "--d", "6"], 2),
                       (["bounds", "--n", "9", "--limit-enum", "5"], 2)]:
        assert exit_code(argv) == code, argv
        assert gc.get_freeze_count() == before, argv
    capsys.readouterr()


# a fresh interpreter registers an atexit handler, then runs ``python -m irrbase ARGV``'s
# module; the handler reports whether it ran and found the collector frozen
ATEXIT_CHILD = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("atexit: frozen", gc.get_freeze_count() > 0))
runpy.run_module("irrbase", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", [(["bounds", "--n", "9"], 0),
                                        (["bounds", "--n", "9", "--limit-enum", "5"], 2)],
                         ids=["success", "argparse-error"])
def test_process_entry_freezes_and_keeps_atexit(argv, code):
    """The entry freezes after ``main`` however it ends, argparse's ``SystemExit`` too, and
    the process still exits through the interpreter: atexit handlers (coverage's, a
    profiler's) run and the exit code is ``main``'s."""
    r = subprocess.run([sys.executable, "-c", ATEXIT_CHILD, *argv], capture_output=True,
                       text=True, timeout=600)
    assert r.returncode == code, r.stderr
    assert r.stdout.endswith("atexit: frozen True\n")


def test_script_and_module_call_one_entry(monkeypatch):
    """``pyproject.toml``'s console script names the function ``__main__.py`` calls."""
    text = (ROOT / "pyproject.toml").read_text()
    module, name = re.search(r'^\[project\.scripts\]\nirrbase = "([\w.]+):(\w+)"$', text,
                             re.M).groups()
    owner = importlib.import_module(module)
    assert getattr(owner, name) is cli.run
    calls = []
    monkeypatch.setattr(owner, name, lambda: calls.append(name) or 0)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("irrbase", run_name="__main__")
    assert (exit_.value.code, calls) == (0, [name])


# one argv of each exit, with its code: success, a failed check, a refusal, argparse's
# error, help
EXIT_CASES = {
    "success": (["bounds", "--n", "9"], 0),
    "verification-failure": (["bounds", "--n", "7", "--family", "agl", "--p", "7", "--d", "1",
                              "--computed", "5"], 1),
    "refusal": (["chain", "--family", "affine", "--p", "3", "--d", "6"], 2),
    "argparse-error": (["bounds", "--n", "9", "--limit-enum", "5"], 2),
    "help": (["verify", "--help"], 0),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_module_exit_matches_main(monkeypatch, capsys, case):
    """``python -m irrbase`` exits with ``main``'s code and writes its bytes."""
    argv, code = EXIT_CASES[case]
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_code(argv) == code
    out, err = capsys.readouterr()
    r = subprocess.run([*CLI, *argv], capture_output=True, text=True, timeout=600)
    assert (r.returncode, r.stdout, r.stderr) == (code, out, err)


def cyclic_garbage(argv) -> tuple:
    """(exit code, every object that only the cyclic collector frees after ``main(argv)``)."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = exit_code(argv)
        gc.collect()
        return code, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# json.dumps(..., indent=2) builds its encoder from closures that refer to each other:
# 33 objects a dump, freed only by the collector (Python 3.13's C encoder builds none)
JSON_ENCODER_CYCLE = 33


def bench_steps(work):
    """(argv, exit code) of every bench workload step in order, its input files written to
    ``work``; a verify step's input, its chain step's certificate, is copied as it comes."""
    workloads = bench_workloads()
    workloads.write_generator_files(work, 0)
    for workload in workloads.WORKLOADS.values():
        for step in workload:
            if isinstance(step, workloads.Verify):
                shutil.copyfile(work / f"{step.chain.label}.json", step.input_path(work))
            yield step.argv(work), 0


def refusal_steps(work) -> list:
    """(argv, exit code) of ``bounds`` in each mode and of a refusal of each kind."""
    (work / "a5.gens").write_text("5\n(1 2 3)\n(1 2 3 4 5)\n")
    (work / "bad.json").write_text('{"degree": 3}\n')
    bounds_agl = ["bounds", "--n", "7", "--family", "agl", "--p", "7", "--d", "1"]
    return [
        (["bounds", "--n", "9"], 0),
        (["bounds", "--n", "25", "--family", "wreath", "--m", "5", "--k", "2", "--computed", "6",
          "--format", "text"], 0),
        ([*bounds_agl, "--computed", "5"], 1),
        ([*bounds_agl, "--computed", "4", "--format", "text"], 0),
        (["bounds", "--lemma52", "--n", "121", "--order-h", "1597200"], 0),
        (["bounds", "--lemma52", "--n", "121", "--order-h", "1597200", "--format", "text"], 0),
        (["bounds", "--n", "9", "--p", "3"], 2),  # usage error
        (["bounds", "--lemma52", "--n", "1000000000", "--order-h", "5"], 2),  # refused
        (["chain", "--family", "affine", "--p", "3", "--d", "6"], 2),  # refused from |H|
        (["chain", "--family", "affine", "--p", "4", "--d", "2"], 2),  # invalid parameters
        (["chain", "--family", "affine", "--p", "3", "--d", "2", "--out",
          str(work / "missing" / "c.json")], 2),  # file error
        (["verify", str(work / "missing.json")], 2),
        (["verify", str(work / "bad.json")], 2),  # malformed certificate
        (["oracle", "--ambient", "S", "--subgroup", "explicit", "--gens-file",
          str(work / "a5.gens")], 2),  # not faithful
        (["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "12"], 2),  # |H| refused
    ]


@pytest.mark.parametrize("steps", [bench_steps, refusal_steps], ids=["bench", "refusals"])
def test_cli_leaves_only_json_encoder_cycles(tmp_path, monkeypatch, capsys, steps):
    """With the collector off, ``main`` on every bench step, every ``bounds`` mode and each
    kind of refusal leaves no cyclic garbage but JSON's encoder closures, and so no file
    that only a collection would close: what the process entry's freeze leaves to the OS."""
    indents = []  # of every json.dumps call
    dumps = json.dumps

    def counting_dumps(*args, **kw):
        indents.append(kw.get("indent"))
        return dumps(*args, **kw)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    for argv, code in steps(tmp_path):
        indents.clear()
        rc, garbage = cyclic_garbage(argv)
        assert rc == code, (argv, capsys.readouterr().err)
        assert not any(isinstance(o, io.IOBase) for o in garbage), argv
        assert {o.__module__ for o in garbage if isinstance(o, types.FunctionType)} <= {
            "json.encoder"}, argv
        assert len(garbage) <= JSON_ENCODER_CYCLE * sum(i is not None for i in indents), argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["verify", "--help"], ["bounds", "--n", "9", "--limit-enum", "5"],
                                  ["chain", "--family", "affine", "--p", "x"]],
                         ids=["help", "unknown-option", "bad-int"])
def test_argparse_exits_leave_no_file_in_a_cycle(capsys, argv):
    """Help and malformed argvs leave argparse's parser in cycles, and no file."""
    code, garbage = cyclic_garbage(argv)
    assert code in (0, 2)
    assert not any(isinstance(o, io.IOBase) for o in garbage)
    capsys.readouterr()
