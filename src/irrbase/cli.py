"""Command-line surface: build chains, run the oracle, verify certificates, report bounds.

Exit codes are a stable contract: 0 success/verified, 1 mathematical
verification failure, 2 usage or limit error.  JSON output is byte-stable
for identical inputs.  No environment variable affects results.

Every subcommand's options are declared once, in ``_COMMANDS``, and the
options each of its modes reads in ``_MODES``, which :func:`_check_reads`
refuses the others by.  A plain invocation (exact ``--name value`` pairs,
flags and verify's positional) is parsed from that table by ``_fast_args``;
everything else, help, abbreviations and every malformed argv, goes to
argparse.  Only ``build_parser`` imports argparse, so a plain run's start-up
loads none of argparse, gettext and locale.

Each subcommand's function lives beside the code it drives, ``chain.cmd_chain``,
``oracle.cmd_oracle``, ``verify.cmd_verify`` and ``bounds_cli.cmd_bounds``, and
the table names it by module, which :func:`main` imports only for the subcommand
it runs.  A run without a bytecode cache compiles every module it imports, so a
step compiles only code that its own subcommand runs.

A process runs the CLI through ``run``, which ``python -m irrbase`` and the
``irrbase`` script both call; ``main`` is the same CLI for callers in a process
that goes on after it.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .certificate import (_POWER_PARAMS, COSET_LIMIT_DEFAULT, ENUM_LIMIT_DEFAULT,
                          MEMO_LIMIT_DEFAULT, LimitExceeded)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _family_params(args, family: str, flag: str) -> dict:
    """The family's parameters, read from the flags of the same names, which ``flag`` requires."""
    names = _POWER_PARAMS.get(family, ("n",))
    params = {a: getattr(args, a) for a in names}
    if None in params.values():
        raise UsageError(f"{flag} requires " + " and ".join(f"--{a}" for a in names))
    return params


_INT = {"type": int}
# --p --d of AGL(d, p), then --m --k of S_m wr S_k
_FAMILY_PARAMS = tuple((f"--{a}", _INT) for names in _POWER_PARAMS.values() for a in names)
_OUTPUT = (("--format", {"choices": ("json", "text"), "default": "json"}),
           ("--out", {"metavar": "PATH", "help": "write output to a file"}))
_LIMIT_ENUM = ("--limit-enum", {"type": int, "default": ENUM_LIMIT_DEFAULT, "metavar": "N",
                                "help": "cap on |H|, and for an ambient-A oracle on the group "
                                        "listed to intersect H with A_n (default %(default)s)"})
# each subcommand's help line, function as "module:name" and options in --help order,
# every option as add_argument takes it; build_parser and _fast_args both read this table
_COMMANDS = {
    "chain": ("build a chain certificate, its orders from one pass over H", "chain:cmd_chain", (
        ("--family", {"required": True, "choices": ("affine", "wreath")}),
        *_FAMILY_PARAMS, *_OUTPUT, _LIMIT_ENUM)),
    "oracle": ("exact maximum irredundant base size of an action", "oracle:cmd_oracle", (
        ("--ambient", {"required": True, "choices": ("S", "A")}),
        ("--subgroup", {"required": True, "choices": ("natural", "agl", "wreath", "explicit")}),
        ("--n", _INT),
        *_FAMILY_PARAMS,
        ("--gens-file", {"metavar": "PATH"}),
        ("--limit-t", {"type": int, "default": COSET_LIMIT_DEFAULT, "metavar": "N",
                       "help": "cap on the coset index (default %(default)s)"}),
        ("--limit-memo", {"type": int, "default": MEMO_LIMIT_DEFAULT, "metavar": "N",
                          "help": "cap on memoized subgroups (default %(default)s)"}),
        ("--no-prune", {"action": "store_true",
                        "help": "search every point of a non-regular orbit, not one per orbit "
                                "(regression flag; same results)"}),
        *_OUTPUT, _LIMIT_ENUM)),
    "verify": ("independently verify a certificate file", "verify:cmd_verify", (
        ("cert", {"metavar": "CERT.json"}), _LIMIT_ENUM)),
    "bounds": ("evaluate closed-form bounds and criteria", "bounds_cli:cmd_bounds", (
        ("--n", _INT),
        ("--ambient", {"choices": ("S", "A"), "default": "S",
                       "help": "the ambient group, read only by --family and --computed; as it "
                               "has a default, it is never refused as unread (default "
                               "%(default)s)"}),
        ("--family", {"choices": ("agl", "wreath")}),
        *_FAMILY_PARAMS,
        ("--order-h", {"type": int, "metavar": "ORDER"}),
        ("--computed", {"type": int, "metavar": "MIBS",
                        "help": "a computed mibs value to compare against the bounds"}),
        ("--lemma52", {"action": "store_true",
                       "help": "index-growth relation checks (requires --n and --order-h)"}),
        *_OUTPUT)),
}
# per subcommand with modes, each mode's options without a default that it reads, in the
# order modes are tried: a mode is "--option value" (or "--flag") where the option has
# that value, and "" where no mode is selected; _check_reads refuses the others
_MODES = {
    "chain": {"--family affine": "--p --d", "--family wreath": "--m --k"},
    "oracle": {"--subgroup natural": "--n", "--subgroup agl": "--p --d",
               "--subgroup wreath": "--m --k", "--subgroup explicit": "--gens-file"},
    "bounds": {"--lemma52": "--n --order-h", "--family agl": "--n --p --d --computed",
               "--family wreath": "--n --m --k --computed", "": "--n --order-h --computed"},
}


def _check_reads(args) -> None:
    """Refuse the first option given, in ``--help`` order, that the mode of ``args`` does
    not read: one that ``_MODES`` lists only for other modes, or that selects another mode.
    An option no mode lists is read by all, or has a default, which cannot be told from a
    given value; it is never refused."""
    modes = _MODES[args.command]
    mode = next(label for label in modes
                if not label or _value(args, label) == (label.partition(" ")[2] or True))
    read = {mode.partition(" ")[0], *modes[mode].split()}
    for name, _ in _COMMANDS[args.command][2]:
        value = _value(args, name)
        if value is None or value is False or name in read:
            continue
        other = next((label for label, reads in modes.items()
                      if name in reads.split() or label.partition(" ")[0] == name), None)
        if other is not None:
            if mode:
                raise UsageError(f"{mode} does not read {name}")
            raise UsageError(f"{name} requires {other.partition(' ')[0]}")


def _value(args, label: str):
    """The value in ``args`` of the option that ``label`` starts with, such as ``--gens-file``."""
    return getattr(args, label.partition(" ")[0][2:].replace("-", "_"))


def build_parser():
    """The argparse parser of ``_COMMANDS``, for help texts, errors and every argv that
    :func:`_fast_args` leaves to it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="irrbase",
        description="irredundant-base chains, exact maximum base sizes, and bound checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_line, func, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, spec in options:
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return ap


def _fast_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read off ``_COMMANDS``,
    or None where argparse must parse ``argv``.

    Read here: a subcommand, then its options as exact ``--name value`` pairs and flags,
    each at most once, with verify's one positional anywhere among them.  Every other
    argv returns None: help, ``--name=value``, abbreviations, any value or positional
    starting with ``-`` (``--`` and ``-1`` too), a bad int or choice, a repeated or missing
    required option, and a stray positional; argparse then parses it or prints its error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    specs = dict(options)
    given, positionals = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        spec = specs.get(arg)
        if spec is None or arg in given:
            return None
        if spec.get("action") == "store_true":
            given[arg] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:  # int's own text, and past its digit limit
                return None
        if value not in spec.get("choices", (value,)):
            return None
        given[arg] = value
    wanted = [name for name in specs if not name.startswith("-")]
    if len(positionals) != len(wanted):
        return None
    ns = dict(zip(wanted, positionals), command=argv[0], func=func)
    for name, spec in options:
        if name.startswith("-"):
            if name in given:
                value = given[name]
            elif spec.get("required"):
                return None
            else:
                value = spec.get("default", False if "action" in spec else None)
            ns[name[2:].replace("-", "_")] = value
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv) or build_parser().parse_args(argv)
    # the subcommand's module, imported only for the subcommand that runs, as an import
    # statement imports it (importlib.import_module would hide it from -X importtime)
    module, name = args.func.split(":")
    func = getattr(__import__(module, globals(), None, [name], 1), name)
    try:
        return func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"invalid parameters: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # a file read or written; exit 1 is reserved for failed verification
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:  # a self-check failed (LimitExceeded is caught above)
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def run() -> int:
    """The process entry: :func:`main` on ``sys.argv``, then ``gc.freeze()``, however it ends.

    The interpreter's shutdown collections walk every object still alive only to free
    memory the OS takes back anyway; frozen objects are out of their reach.  Exit codes,
    stream flushes and atexit handlers are kept.  Safe because no CLI path leaves a file
    in a reference cycle (every write is a ``with``; ``tests/test_process_entry.py``).
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
