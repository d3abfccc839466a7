"""``cli._fast_args`` against argparse: the same namespace, or None and argparse parses.

The corpus: every argv the bench workloads and the CI smoke step run, hand-written
edge cases, and a seeded generator over each subcommand's options, valid and not.
"""

import contextlib
import io
import random
import re
import shlex
from pathlib import Path

import pytest

from irrbase import cli

from conftest import ROOT, bench_workloads


@pytest.fixture(scope="module")
def parser():
    return cli.build_parser()


def argparse_vars(parser, argv):
    """``vars(parse_args(argv))``, or None where argparse exits (help or an error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def bench_argvs() -> list:
    """Every argv of every bench workload step."""
    work = Path("work")
    return [step.argv(work) for steps in bench_workloads().WORKLOADS.values() for step in steps]


_SHELL_END = re.compile(r"\|\||&&|;|\||\d*>.*")


def ci_argvs() -> list:
    """Every ``irrbase ...`` command line of the CI workflow, cut where the shell takes over."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    argvs = []
    for m in re.finditer(r"\birrbase ((?:chain|oracle|verify|bounds)\b.*)", text):
        argv = []
        for token in shlex.split(m.group(1)):
            if _SHELL_END.fullmatch(token):
                break
            argv.append(token)
        argvs.append(argv)
    return argvs


def test_corpus_found():
    bench, ci = bench_argvs(), ci_argvs()
    assert len(bench) >= 15 and len(ci) >= 40
    assert {argv[0] for argv in ci} == set(cli._COMMANDS)
    assert {argv[0] for argv in bench} == {"chain", "verify", "oracle"}


def test_bench_and_ci_argvs_take_the_fast_path(parser):
    """Every run the bench times and CI smokes is read off the table, as argparse reads it."""
    for argv in bench_argvs() + ci_argvs():
        fast = cli._fast_args(argv)
        assert fast is not None, argv
        assert vars(fast) == argparse_vars(parser, argv), argv


PLAIN = [
    ["verify", "c.json"],
    ["verify", "c.json", "--limit-enum", "5"],
    ["verify", "--limit-enum", "5", "c.json"],
    ["verify", ""],
    ["chain", "--family", "affine"],
    ["chain", "--family", "wreath", "--m", "5", "--k", "2", "--format", "text", "--out", "w.txt"],
    ["chain", "--out", "", "--family", "affine"],
    ["chain", "--family", "affine", "--p", " 3 ", "--d", "+2", "--m", "1_0", "--k", "٣"],
    ["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "6", "--no-prune"],
    ["oracle", "--subgroup", "explicit", "--gens-file", "m11 gens", "--ambient", "A",
     "--limit-t", "0", "--limit-memo", "7"],
    ["bounds"],
    ["bounds", "--lemma52", "--n", "121", "--order-h", "1597200"],
    ["bounds", "--n", "9", "--family", "agl", "--p", "3", "--d", "2", "--computed", "5",
     "--ambient", "A", "--format", "text", "--out", "b.txt"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_argv_is_read_off_the_table(parser, argv):
    fast = cli._fast_args(argv)
    assert fast is not None
    assert vars(fast) == argparse_vars(parser, argv)


LEFT_TO_ARGPARSE = [
    [],
    ["-h"],
    ["--help"],
    ["chai"],
    ["chain", "-h"],
    ["chain", "--family=affine"],
    ["chain", "--fam", "affine"],
    ["chain", "--family", "affine", "--family", "wreath"],
    ["chain", "--family", "affine", "--p"],
    ["chain", "--family", "affine", "--p", "x"],
    ["chain", "--family", "affine", "--p", "-1"],
    ["chain", "--family", "affine", "stray"],
    ["chain", "--family", "AFFINE"],
    ["chain", "--", "--family", "affine"],
    ["chain", "--family", "affine", "--n", "5"],
    ["oracle", "--ambient", "S"],
    ["oracle", "--ambient", "S", "--subgroup", "natural", "--no-prune", "--no-prune"],
    ["verify"],
    ["verify", "a.json", "b.json"],
    ["verify", "-"],
    ["verify", "--", "c.json"],
    ["verify", "-5"],
    ["bounds", "--n", "-1"],
    ["bounds", "--computed", "-1"],
    ["bounds", "--no-prune"],
    ["bounds", "--lemma52", "--lemma52"],
    ["bounds", "--limit-enum", "5"],
]


@pytest.mark.parametrize("argv", LEFT_TO_ARGPARSE, ids=lambda argv: " ".join(argv) or "empty")
def test_other_argv_is_left_to_argparse(argv):
    assert cli._fast_args(argv) is None


BAD_VALUES = ["x", "1.5", "", " 7 ", "+3", "1_000", "٣", "0x10", "9" * 4301, "-1", "-", "--",
              "-x", "AFFINE", "B", "s", "--help"]


def random_argv(rng: random.Random) -> list:
    """A subcommand (now and then a wrong one) and a shuffle of option items, most valid."""
    command = rng.choice([*cli._COMMANDS] * 6 + ["-h", "--help", "chai", "", "--"])
    options = cli._COMMANDS[command][2] if command in cli._COMMANDS else ()
    others = [name for _, _, opts in cli._COMMANDS.values() for name, _ in opts]

    def value(spec):
        if "choices" in spec:
            return rng.choice(spec["choices"])
        if "type" in spec:
            return str(rng.choice([0, 1, 3, 7, 10**25]))
        return rng.choice(["c.json", "out dir/w.json", "p"])

    def item(name, spec):
        if not name.startswith("-"):
            return [rng.choice(["c.json", "a b.json"])]
        if spec.get("action") == "store_true":
            return [name]
        return [name, value(spec)]

    items = [item(name, spec) for name, spec in options
             if spec.get("required") or not name.startswith("-") or rng.random() < 0.3]
    items = [i for i in items if rng.random() < 0.93]  # now and then a required one is missing
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        name, spec = rng.choice(options) if options else ("--n", {"type": int})
        kind = rng.randrange(8)
        if kind == 0:
            items.append([name, rng.choice(BAD_VALUES)])
        elif kind == 1:
            items.append([f"{name}={value(spec)}"])
        elif kind == 2 and len(name) > 3:
            items.append([name[:rng.randrange(3, len(name))], value(spec)])
        elif kind == 3:
            items.append(item(name, spec))  # a repeat, or a second positional
        elif kind == 4:
            items.append([rng.choice(others), value(spec)])
        elif kind == 5:
            items.append([rng.choice(["-h", "--help", "--", "stray"])])
        elif kind == 6:
            items.append([name])  # a value left out
        else:
            items.append(item(name, spec))
    rng.shuffle(items)
    return [command, *(token for i in items for token in i)]


def test_fast_args_agrees_with_argparse(parser):
    """Wherever ``_fast_args`` answers, argparse parses the argv to the same namespace,
    ``func`` included; the seeded corpus holds plenty of both outcomes."""
    rng = random.Random(30)
    read = left = 0
    for _ in range(3000):
        argv = random_argv(rng)
        fast = cli._fast_args(argv)
        if fast is None:
            left += 1
        else:
            read += 1
            assert vars(fast) == argparse_vars(parser, argv), argv
    assert read >= 600 and left >= 600
