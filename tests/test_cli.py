import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from irrbase import affine, certificate, cli, oracle, wreath
from irrbase.affine import affine_chain, build_agl
from irrbase.cli import main
from irrbase.group import PermutationGroup, alternating_group, trivial_group
from irrbase.perm import Permutation, compose, parse_cycles, print_cycles
from irrbase.wreath import build_wreath, wreath_chain

CLI = [sys.executable, "-m", "irrbase"]


def run(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600, **kw
    )


def test_chain_then_verify_fresh_process(tmp_path):
    out = tmp_path / "c32.json"
    r = run("chain", "--family", "affine", "--p", "3", "--d", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    data = json.loads(out.read_text())
    assert data["claimed_length"] == 5
    assert data["subgroup"]["family"] == "agl"
    assert data["levels"][0]["conjugators"] == ["()"]
    assert data["levels"][-1]["order"] == "1"
    v = run("verify", str(out))
    assert v.returncode == 0, v.stderr
    assert "VERIFIED" in v.stdout


def test_chain_wreath(tmp_path):
    out = tmp_path / "w52.json"
    r = run("chain", "--family", "wreath", "--m", "5", "--k", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["claimed_length"] == 6
    v = run("verify", str(out))
    assert v.returncode == 0


def test_chain_rejects_even_p():
    r = run("chain", "--family", "affine", "--p", "2", "--d", "3")
    assert r.returncode == 2
    assert "odd p required" in r.stderr


def test_chain_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("chain", "--family", "affine", "--p", "7", "--d", "1", "--out", str(a)).returncode == 0
    assert run("chain", "--family", "affine", "--p", "7", "--d", "1", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_tampered_order(tmp_path):
    out = tmp_path / "c.json"
    run("chain", "--family", "affine", "--p", "3", "--d", "2", "--out", str(out))
    data = json.loads(out.read_text())
    data["levels"][2]["order"] = "999"
    out.write_text(json.dumps(data))
    v = run("verify", str(out))
    assert v.returncode == 1
    assert "level 2" in v.stdout and "FAIL" in v.stdout


def test_verify_truncated_json(tmp_path):
    out = tmp_path / "broken.json"
    run("chain", "--family", "affine", "--p", "7", "--d", "1", "--out", str(out))
    text = out.read_text()
    out.write_text(text[: len(text) // 2])
    v = run("verify", str(out))
    assert v.returncode == 2
    assert "malformed" in v.stderr


def test_verify_missing_file():
    v = run("verify", "/nonexistent/cert.json")
    assert v.returncode == 2


def test_oracle_natural():
    r = run("oracle", "--ambient", "S", "--subgroup", "natural", "--n", "6")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["mibs"] == 5


def test_oracle_agl_witness_roundtrip(tmp_path):
    out = tmp_path / "witness.json"
    r = run(
        "oracle", "--ambient", "S", "--subgroup", "agl", "--p", "7", "--d", "1",
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["mibs"] == 4
    w = json.loads(out.read_text())
    assert w["subgroup"]["family"] == "agl" and w["claimed_length"] == 4
    v = run("verify", str(out))
    assert v.returncode == 0, v.stdout + v.stderr


def test_oracle_alternating_ambient():
    r = run("oracle", "--ambient", "A", "--subgroup", "agl", "--p", "7", "--d", "1")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["mibs"] == 3


def test_oracle_refuses_large_index():
    r = run("oracle", "--ambient", "S", "--subgroup", "wreath", "--m", "5", "--k", "2")
    assert r.returncode == 2
    assert "exceeds" in r.stderr and "limit" in r.stderr


def test_oracle_text_format(capsys):
    assert main(["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "7",
                 "--format", "text"]) == 0
    assert capsys.readouterr() == ("mibs = 6  (ambient S, degree 7, index 7)\n", "")


def test_oracle_no_prune_flag():
    r1 = run("oracle", "--ambient", "S", "--subgroup", "natural", "--n", "5")
    r2 = run("oracle", "--ambient", "S", "--subgroup", "natural", "--n", "5", "--no-prune")
    assert json.loads(r1.stdout)["mibs"] == json.loads(r2.stdout)["mibs"] == 4


def test_oracle_explicit_family(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("6\n(1 2 3 4 5 6)\n(1 2)\n")
    # H = S_6 in S_6 is the whole group: refused as a trivial action
    r = run("oracle", "--ambient", "S", "--subgroup", "explicit", "--gens-file", str(gens))
    assert r.returncode == 2
    gens.write_text("6\n(1 2 3 4 5)\n(1 2)\n")  # point stabilizer of 6
    r = run("oracle", "--ambient", "S", "--subgroup", "explicit", "--gens-file", str(gens))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["mibs"] == 5


def test_bounds_report():
    r = run("bounds", "--n", "9", "--family", "agl", "--p", "3", "--d", "2", "--computed", "5")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["family"]["lower"] == 5
    assert data["family"]["maximal"] is True
    assert abs(data["upper_bound_generic"] - 14.218) < 0.01
    assert all(c["ok"] for c in data["comparisons"])


# bounds argv with --computed -> the family comparison it makes, and the exit code
BOUNDS_COMPUTED = {
    "agl-7-1-exact": (["--n", "7", "--family", "agl", "--p", "7", "--d", "1", "--computed", "4"],
                      {"formula": "mibs == exact", "lhs": 4, "rhs": 4, "ok": True}, 0),
    "agl-7-1-off": (["--n", "7", "--family", "agl", "--p", "7", "--d", "1", "--computed", "5"],
                    {"formula": "mibs == exact", "lhs": 5, "rhs": 4, "ok": False}, 1),
    "wreath-5-2-inside": (["--n", "25", "--family", "wreath", "--m", "5", "--k", "2",
                           "--computed", "6"],
                          {"formula": "lower <= mibs <= upper", "lhs": 6, "rhs": [6, 13.0],
                           "ok": True}, 0),
    "wreath-5-2-above": (["--n", "25", "--family", "wreath", "--m", "5", "--k", "2",
                          "--computed", "14"],
                         {"formula": "lower <= mibs <= upper", "lhs": 14, "rhs": [6, 13.0],
                          "ok": False}, 1),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_COMPUTED))
def test_bounds_computed_against_the_family(capsys, case):
    argv, comparison, code = BOUNDS_COMPUTED[case]
    assert main(["bounds", *argv]) == code
    assert json.loads(capsys.readouterr().out)["comparisons"][1] == comparison


@pytest.mark.parametrize("n, length", [(10, None), (11, 7), (12, 8), (23, 11), (24, 14)])
def test_bounds_mathieu_length_row(capsys, n, length):
    assert main(["bounds", "--n", str(n)]) == 0
    assert json.loads(capsys.readouterr().out).get("mathieu_length") == length


def test_bounds_lemma52_table_range_note(capsys):
    assert main(["bounds", "--lemma52", "--n", "81", "--order-h", "432"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "table" and data["milestone_ok"] is None
    assert data["note"] == ("constants checked only on this instance; the range n <= 100 "
                            "relies on external enumeration (partial check)")


def test_bounds_lemma52():
    r = run("bounds", "--lemma52", "--n", "121", "--order-h", "1597200")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["milestone_ok"] and data["loglog_ok"] and data["ratio_ok"]


# sha256 of `bounds --lemma52 --n 121 --order-h 1597200` stdout, json and text
LEMMA52_DIGESTS = {
    "json": "2a3307b0a198e77aba9b7f0c099f431239d416123af6318b76ca6d3a84aa0409",
    "text": "5ee288844dff8a75b0aee6afb1be1566f500cd1ea11d8bfb861321997f5f1724",
}


@pytest.mark.parametrize("fmt", sorted(LEMMA52_DIGESTS))
def test_bounds_lemma52_writes_out(tmp_path, capsys, fmt):
    """--lemma52 honours --out as every bounds run does: the report goes to the file."""
    argv = ["bounds", "--lemma52", "--n", "121", "--order-h", "1597200", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == LEMMA52_DIGESTS[fmt]
    out = tmp_path / "l52.out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == printed


def test_bounds_small_n_rejected():
    r = run("bounds", "--n", "6")
    assert r.returncode == 2
    assert r.stderr == "invalid parameters: degree 6 < 7 is out of range\n"


def test_bounds_text_format():
    r = run("bounds", "--n", "9", "--format", "text")
    assert r.returncode == 0
    assert "binary_weight" in r.stdout


# bounds argv -> its one usage-error line; the first three once ended in a traceback
BOUNDS_USAGE_ERRORS = {
    "lemma52-without-n": (["--lemma52", "--order-h", "5"], "--lemma52 requires --n"),
    "lemma52-without-order-h": (["--lemma52", "--n", "9"], "--lemma52 requires --order-h"),
    "agl-zero-base": (["--n", "9", "--family", "agl", "--p", "0", "--d", "-1"],
                      "p^d = 0^-1 does not match --n 9"),
    "wreath-zero-base": (["--n", "25", "--family", "wreath", "--m", "0", "--k", "-1"],
                         "m^k = 0^-1 does not match --n 25"),
    # refused before 3**3000000 is computed (it once leaked Python's int-to-str limit)
    "agl-huge-exponent": (["--n", "9", "--family", "agl", "--p", "3", "--d", "3000000"],
                          "p^d = 3^3000000 does not match --n 9"),
    "agl-wrong-power": (["--n", "9", "--family", "agl", "--p", "3", "--d", "3"],
                        "p^d = 27 does not match --n 9"),
    # a base over n is not formed as a power; with exponent 1 it is the power
    "agl-prime-over-n": (["--n", "9", "--family", "agl", "--p", "1009", "--d", "1"],
                         "p^d = 1009 does not match --n 9"),
    "wreath-without-k": (["--n", "25", "--family", "wreath", "--m", "5"],
                         "--family wreath requires --m and --k"),
    # an option the report's mode does not read; each once exited 0 with it ignored
    "family-with-order-h": (["--n", "9", "--family", "agl", "--p", "3", "--d", "2",
                             "--order-h", "0"], "--family agl does not read --order-h"),
    "agl-with-m": (["--n", "9", "--family", "agl", "--p", "3", "--d", "2", "--m", "5"],
                   "--family agl does not read --m"),
    "wreath-with-d": (["--n", "25", "--family", "wreath", "--m", "5", "--k", "2", "--d", "2"],
                      "--family wreath does not read --d"),
    "lemma52-with-computed": (["--lemma52", "--n", "121", "--order-h", "1597200",
                               "--computed", "0"], "--lemma52 does not read --computed"),
    "lemma52-with-family": (["--lemma52", "--n", "121", "--order-h", "1597200", "--family",
                             "agl", "--p", "11", "--d", "2"], "--lemma52 does not read --family"),
    "lemma52-with-k": (["--lemma52", "--n", "121", "--order-h", "1597200", "--k", "2"],
                       "--lemma52 does not read --k"),
    "params-without-family": (["--n", "9", "--p", "3", "--d", "2"], "--p requires --family"),
    "m-without-family": (["--n", "25", "--m", "5", "--order-h", "2"], "--m requires --family"),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_USAGE_ERRORS))
def test_bounds_bad_input_exits_2(capsys, case):
    argv, message = BOUNDS_USAGE_ERRORS[case]
    assert main(["bounds", *argv]) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


# S_m wr S_k lies in A_{m^k} exactly when m is even and k >= 3 or 4 | m: then
# |H ∩ A_n| = |H| (it was once halved); (m, k) -> "order_h" under --ambient A
BOUNDS_WREATH_IN_A = {(8, 2): "3251404800", (6, 3): "2239488000"}
# sha256 of the ambient-A wreath bounds report, json, where H has an odd element
BOUNDS_WREATH_A_DIGESTS = {
    (5, 2): "206145d896642bee6139c584b1650e0501c5a123603d5e290b6bec2bbc122598",
    (6, 2): "3ca5b8b52f8d5e84f3f27b5cff969bf8f1afb65fef209b762760ab3ed84521ca",
    (7, 2): "bd9be481e4070f5dd24c5a4f9a0d377227610ba211088cbd09f34d4cb25384c2",
}


@pytest.mark.parametrize("mk", sorted(BOUNDS_WREATH_IN_A))
def test_bounds_wreath_inside_a_n_keeps_its_order(capsys, mk):
    m, k = mk
    argv = ["bounds", "--n", str(m**k), "--family", "wreath", "--m", str(m), "--k", str(k)]
    assert main([*argv, "--ambient", "A"]) == 0
    order = BOUNDS_WREATH_IN_A[mk]
    assert f'"order_h": "{order}"' in capsys.readouterr().out
    assert main(argv) == 0  # the same order under S
    assert f'"order_h": "{order}"' in capsys.readouterr().out


@pytest.mark.parametrize("mk", sorted(BOUNDS_WREATH_A_DIGESTS))
def test_bounds_wreath_with_odd_element_bytes_pinned(capsys, mk):
    m, k = mk
    argv = ["bounds", "--n", str(m**k), "--ambient", "A", "--family", "wreath",
            "--m", str(m), "--k", str(k)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_WREATH_A_DIGESTS[mk]


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--family", "affine", "--p", "3", "--d", "2", "--out", "/nonexistent/x.json"],
        ["oracle", "--ambient", "S", "--subgroup", "explicit", "--gens-file", "/nonexistent.gens"],
        ["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "6",
         "--out", "/nonexistent/w.json"],
        ["bounds", "--n", "9", "--out", "/nonexistent/b.json"],
    ],
    ids=["chain-out", "oracle-gens-file", "oracle-out", "bounds-out"],
)
def test_file_error_exits_2(argv):
    """A file that cannot be read or written is a usage error, not a failed verification."""
    r = run(*argv)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("file error: ") and "/nonexistent" in r.stderr
    assert r.stderr.count("\n") == 1


# bounds argv -> the maroti bounds past the largest float, as about 10^x, and their verdicts
BOUNDS_PAST_FLOAT = {
    "agl-83-2": (["--n", "6889", "--family", "agl", "--p", "83", "--d", "2"],
                 {"global_bound": "about 10^320.3", "global_ok": True,
                  "small_bound": 7.871008869386206e+49, "small_ok": True}),
    "n-100000": (["--n", "100000", "--order-h", "5"],
                 {"global_bound": "about 10^1582.8", "global_ok": True,
                  "small_bound": 1e+85, "small_ok": True}),
    "n-10^21": (["--n", str(10**21), "--order-h", str(10**1500)],
                {"global_bound": "about 10^664078308637.1", "global_ok": True,
                 "small_bound": "about 10^1470.0", "small_ok": False}),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_PAST_FLOAT))
def test_bounds_past_the_largest_float(capsys, case):
    """A bound that overflows a float is printed as about 10^x and decided in log2."""
    argv, maroti = BOUNDS_PAST_FLOAT[case]
    assert main(["bounds", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["maroti"] == maroti


@pytest.mark.parametrize("argv, err", [
    (["--n", str(3**700)], "invalid parameters: n = about 10^334.0 is too large for the float "
                           "bounds\n"),
    (["--n", "6889", "--order-h", str(50 * 6889**83)],
     "invalid parameters: |H| is too close to the bound about 10^320.3 to compare in floating "
     "point\n"),
])
def test_bounds_refusals_past_the_largest_float(capsys, argv, err):
    assert main(["bounds", *argv]) == 2
    assert capsys.readouterr() == ("", err)


def test_big_prime_p_refused_in_a_fresh_process():
    """The oracle and chain on a 21-digit prime p exit 2 well inside a 10 s timeout."""
    for argv in (["oracle", "--ambient", "S", "--subgroup", "agl"], ["chain", "--family", "affine"]):
        r = subprocess.run([*CLI, *argv, "--p", "100000000000000000039", "--d", "1"],
                           capture_output=True, text=True, timeout=10)
        assert r.returncode == 2 and r.stderr.startswith("refused: "), r.stderr


# each ran past a 5 s timeout: omega trial-divided p - 1 = 2q for a 20-digit prime q,
# and --lemma52 summed 10^9 logarithms; argv -> exit code and the start of stderr
BOUNDS_ONCE_HUNG = {
    "safe-prime-p": (["--n", "100000000000000000763", "--family", "agl",
                      "--p", "100000000000000000763", "--d", "1"], 0, ""),
    "lemma52-huge-n": (["--lemma52", "--n", "1000000000", "--order-h", "5"], 2,
                       "refused: n = 1000000000 exceeds the index-growth check's cap 1000000\n"),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_ONCE_HUNG))
def test_bounds_once_hung_exit_within_a_second(capsys, case):
    argv, code, err = BOUNDS_ONCE_HUNG[case]
    start = time.perf_counter()
    assert main(["bounds", *argv]) == code
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("extra", [[], ["--ambient", "S"], ["--ambient", "A"]])
def test_bounds_lemma52_reads_no_ambient(capsys, extra):
    """``--ambient`` has a default, so a given one is accepted in every mode, read or not."""
    assert main(["bounds", "--lemma52", "--n", "121", "--order-h", "1597200", *extra]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (LEMMA52_DIGESTS["json"], "")


@pytest.mark.parametrize("computed", ["0", "-1"])
def test_bounds_refuses_a_computed_mibs_below_1(capsys, computed):
    """A computed mibs below 1 is refused as --order-h 0 is; both once read "ok": true."""
    assert main(["bounds", "--n", "10", "--computed", computed]) == 2
    assert capsys.readouterr() == ("", "invalid parameters: computed mibs must be positive\n")


def test_bounds_has_no_limit_enum_flag():
    r = run("bounds", "--n", "9", "--limit-enum", "5")
    assert r.returncode == 2
    assert "unrecognized arguments: --limit-enum 5" in r.stderr


# a fresh interpreter runs main(argv) and reports the modules it imported; the
# set it starts with is subtracted, so what `site` preloads does not matter
IMPORTS_CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    from irrbase.cli import main
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


@pytest.fixture(scope="module")
def cert_files(tmp_path_factory):
    """Certificate paths for affine (3, 2) and wreath (5, 2), written once."""
    paths = {}
    for key, argv in {"c32": ["affine", "--p", "3", "--d", "2"],
                      "w52": ["wreath", "--m", "5", "--k", "2"]}.items():
        paths[key] = str(tmp_path_factory.mktemp("certs") / f"{key}.json")
        assert main(["chain", "--family", *argv, "--out", paths[key]]) == 0
    return paths


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["chain", "--family", "affine", "--p", "3", "--d", "2"],
         ["affine"], ["oracle", "wreath", "bounds", "bounds_cli"]),
        (["chain", "--family", "wreath", "--m", "5", "--k", "2"],
         ["wreath"], ["affine", "oracle", "bounds", "bounds_cli"]),
        (["verify", "{w52}"], [], ["oracle", "affine", "wreath", "bounds", "bounds_cli"]),
        (["verify", "{c32}"], [], ["oracle", "affine", "wreath", "bounds", "bounds_cli"]),
        (["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "6"],
         ["oracle"], ["affine", "wreath", "bounds", "bounds_cli"]),
        (["bounds", "--n", "9"], ["bounds", "bounds_cli"], ["oracle", "wreath", "affine"]),
    ],
    ids=["chain-affine", "chain-wreath", "verify-wreath", "verify-agl", "oracle-natural",
         "bounds"],
)
def test_cli_imports_only_what_it_runs(cert_files, argv, used, unused):
    argv = [a.format(**cert_files) for a in argv]
    r = subprocess.run([sys.executable, "-c", IMPORTS_CHILD, json.dumps(argv)],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    code, added = json.loads(r.stdout)
    assert code == 0
    assert {f"irrbase.{m}" for m in used} <= set(added)
    for name in ["dataclasses", "inspect", *(f"irrbase.{m}" for m in unused)]:
        assert name not in added


# one plain run of each subcommand; "{c32}" is a certificate from cert_files
PLAIN_RUNS = [
    ["chain", "--family", "affine", "--p", "3", "--d", "2"],
    ["verify", "{c32}"],
    ["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "6"],
    ["bounds", "--n", "9", "--computed", "5"],
]


def imported_modules(importtime: str) -> set:
    """The module names that ``python -X importtime`` lists on stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime.splitlines()
            if line.startswith("import time:") and "|" in line}


@pytest.mark.parametrize("argv", PLAIN_RUNS, ids=lambda argv: argv[0])
def test_plain_runs_import_no_argparse(cert_files, argv):
    """A plain run is parsed from the option table: argparse, and the gettext and locale
    that its parse imports, are left out of ``python -m irrbase``'s start-up."""
    base = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                          capture_output=True, text=True, timeout=600)
    r = subprocess.run([sys.executable, "-X", "importtime", "-m", "irrbase",
                        *(a.format(**cert_files) for a in argv)],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    added = imported_modules(r.stderr) - imported_modules(base.stderr)
    assert "irrbase.cli" in added
    assert added.isdisjoint({"argparse", "gettext", "locale"})


def test_help_in_a_fresh_process():
    """``--help`` still goes to argparse, imported only then, with the pinned text."""
    r = subprocess.run([*CLI, "oracle", "--help"], capture_output=True, text=True,
                       timeout=600, env=dict(os.environ, COLUMNS="80"))
    assert (r.returncode, r.stderr) == (0, "")
    assert help_parts(r.stdout) == help_parts(HELP[("oracle",)])


def test_bounds_module_loads_no_cli():
    """The formulas stay importable without the command line around them."""
    code = ("import json, sys; import irrbase.bounds; "
            "print(json.dumps(sorted(m for m in ('argparse', 'irrbase.cli', 'irrbase.bounds_cli') "
            "if m in sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == []


def test_bounds_report_loads_no_cli():
    """The bounds report imports nothing of the command line: the dependency runs one way."""
    code = ("import json, sys; import irrbase.bounds_cli; "
            "print(json.dumps(sorted(m for m in ('argparse', 'irrbase.cli') if m in sys.modules)))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == []


def test_optimized_interpreter_same_output(tmp_path):
    """The result-guarding checks are raises, so ``python -O`` keeps them and the output."""
    chain = ["chain", "--family", "wreath", "--m", "5", "--k", "2"]
    oracle = ["oracle", "--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "2", "--out"]
    runs = []
    for flags in ([], ["-O"]):
        wit = tmp_path / f"w{len(flags)}.json"
        c = subprocess.run([sys.executable, *flags, "-m", "irrbase", *chain],
                           capture_output=True, timeout=600)
        o = subprocess.run([sys.executable, *flags, "-m", "irrbase", *oracle, str(wit)],
                           capture_output=True, timeout=600)
        assert c.returncode == 0 and o.returncode == 0
        runs.append((c.stdout, o.stdout, wit.read_bytes()))
    assert runs[0] == runs[1]


def test_output_independent_of_hash_seed(tmp_path):
    """A bytes table's hash is salted by PYTHONHASHSEED, so no output may depend on set order."""
    (tmp_path / "agl-3-2.gens").write_text(GENERATOR_FILES["agl-3-2.gens"])
    commands = [
        ["chain", "--family", "affine", "--p", "3", "--d", "2"],
        ["oracle", "--subgroup", "natural", "--n", "7", "--ambient", "A", "--out", "n7.json"],
        ["oracle", "--ambient", "S", "--subgroup", "explicit", "--gens-file", "agl-3-2.gens",
         "--out", "agl32.json"],
    ]
    runs = []
    for seed in ("0", "4242"):
        outputs = []
        for argv in commands:
            argv = [str(tmp_path / a) if a.endswith((".gens", ".json")) else a for a in argv]
            r = subprocess.run(CLI + argv, capture_output=True, timeout=600,
                               env={**os.environ, "PYTHONHASHSEED": seed})
            assert r.returncode == 0, r.stderr
            outputs.append(r.stdout)
        outputs += [(tmp_path / name).read_bytes() for name in ("n7.json", "agl32.json")]
        runs.append(outputs)
    assert runs[0] == runs[1]


# -- in-process runs of the CLI -------------------------------------------------

# sha256 of the certificate bytes, which must stay stable across releases
PINNED_DIGESTS = {
    ("json", "affine", "3", "2"): "5513d574b133db7ed4d97c56b6fc4a8b492735e64f3afada09efb1832ae311e1",
    ("json", "affine", "7", "1"): "fbedbf502606af69136e5ccb389be8e27ebb03d34d6805466af0434b7d1dc8a2",
    ("json", "wreath", "5", "2"): "a14082ca559c9f18cae4c90481d35ffa1ea39f9ed4899b79ba17dfc66227d4b7",
    ("text", "affine", "3", "2"): "c620149e56716a4df8878a44f6134b2867dbbbfa8b9459a8c9e0cdda903eb168",
}


# sha256 of the chains no pin above covers: affine (3,3), (5,2) and (7,2); wreath (6,2),
# whose even m makes u an (m-1)-cycle; and wreath (5,3), whose k = 3 needs a raised cap
CHAIN_DIGESTS = {
    ("affine", "--p", "3", "--d", "3"):
        "bfc885300b21197dbdac53b336ccf782a7708e519a5028665b42d976f6bdf76e",
    ("affine", "--p", "5", "--d", "2"):
        "dd814c6b09f23a5c0d2396b626223cc93ff6027e0dc5f8057cf4df1a3fa92a7d",
    ("affine", "--p", "7", "--d", "2"):
        "de1f1e449a99686626831c211e1beb1c84f02a748081cd3fd2762614ad419fc8",
    ("wreath", "--m", "6", "--k", "2"):
        "b546e82413bc5739d34f9242d366f715b39f8b62f3198baacf31126c554fc423",
    ("wreath", "--m", "5", "--k", "3", "--limit-enum", "20000000"):
        "3e82af4b12e846553b6149fea54bb1e47968789e14f8bf30868c9042847e55de",
}


@pytest.mark.parametrize("key", sorted(CHAIN_DIGESTS), ids="".join)
def test_family_chain_bytes_pinned(tmp_path, key):
    out = tmp_path / "cert.json"
    assert main(["chain", "--family", *key, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHAIN_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS), ids="-".join)
def test_chain_bytes_pinned(tmp_path, key):
    fmt, family, a, b = key
    names = ("--p", "--d") if family == "affine" else ("--m", "--k")
    out = tmp_path / "cert"
    argv = ["chain", "--family", family, names[0], a, names[1], b, "--format", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DIGESTS[key]


# sha256 of `chain --family affine --p P --d 1` on either side of degree 256, the
# largest degree whose permutation tables are bytes: AGL(1, 251) and AGL(1, 257)
BOUNDARY_DIGESTS = {
    "251": "334c66a6ae7ccaebec1518594878050410b49c2297876ff9c2725f2fb2c73fa3",
    "257": "fe66db9b47b77f910ff31305b0049fd20cc1aac8591f35cd8e93bf4ffa8f5f80",
}


@pytest.mark.parametrize("p", sorted(BOUNDARY_DIGESTS))
def test_chain_bytes_pinned_at_the_table_boundary(tmp_path, capsys, p):
    out = tmp_path / "cert.json"
    assert main(["chain", "--family", "affine", "--p", p, "--d", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BOUNDARY_DIGESTS[p]
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out.endswith("certificate VERIFIED\n")


def test_chain_never_enumerates_h(monkeypatch, capsys):
    """No element of H is listed; one coset-stabilizer call per conjugator new to its level."""
    def enumerated(*args):
        raise AssertionError("chain enumerated a group")

    monkeypatch.setattr(PermutationGroup, "_iter_element_tbls", enumerated)
    monkeypatch.setattr(PermutationGroup, "_conjugate_members", enumerated)
    calls = []
    stabilizer = PermutationGroup._coset_stabilizer
    monkeypatch.setattr(
        PermutationGroup, "_coset_stabilizer",
        lambda self, k, x: calls.append(k.order()) or stabilizer(self, k, x),
    )
    assert main(["chain", "--family", "affine", "--p", "3", "--d", "2"]) == 0
    levels = json.loads(capsys.readouterr().out)["levels"]
    sets = [set(lvl["conjugators"]) for lvl in levels]
    assert all(a <= b for a, b in zip(sets, sets[1:]))  # nested: no level restarts from H
    assert len(calls) == sum(len(b - a) for a, b in zip(sets, sets[1:])) == 8
    assert [int(lvl["order"]) for lvl in levels] == [432, 12, 4, 2, 1]


def test_chain_build_check_failure_exits_1(monkeypatch, capsys):
    diagonal_chain = affine.diagonal_chain

    def wrong_prediction(ctx):
        steps = diagonal_chain(ctx)
        steps[0].predicted = trivial_group(ctx.n)
        return steps

    monkeypatch.setattr(affine, "diagonal_chain", wrong_prediction)
    assert main(["chain", "--family", "affine", "--p", "7", "--d", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: diagonal level order 3 != predicted 1\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--family", "affine", "--p", "3", "--d", "2", "--limit-enum", "100"],
         "refused: subgroup order 432 exceeds enumeration limit 100\n"),
        (["--family", "wreath", "--m", "5", "--k", "2", "--limit-enum", "1000"],
         "refused: subgroup order 28800 exceeds enumeration limit 1000\n"),
    ],
    ids=["affine", "wreath"],
)
def test_chain_limit_enum_refusal_message(capsys, argv, err):
    """The |H| cap refuses a chain in the words and exit code that verify uses."""
    assert main(["chain", *argv]) == 2
    assert capsys.readouterr() == ("", err)


def test_verify_self_check_failure_exits_1(cert_files, monkeypatch, capsys):
    def failed(*args):
        raise RuntimeError("level pass failed")

    monkeypatch.setattr(PermutationGroup, "_conjugate_levels", failed)
    assert main(["verify", cert_files["w52"]]) == 1
    assert capsys.readouterr() == ("", "internal error: level pass failed\n")


def test_oracle_index_refusal_message(capsys):
    argv = ["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "7", "--limit-t", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "refused: coset index 5040/720 = 7 exceeds limit --limit-t 5\n"


# ambient-A oracle argv -> its refusal; the index one is checked before H ∩ A_n is
# listed, and intersect's refusal to list a large H keeps its place first
A_REFUSALS = {
    "agl-3-3": (["--subgroup", "agl", "--p", "3", "--d", "3"],
                "refused: coset index 5444434725209176080384000000/151632 = "
                "35905578804006912000000 exceeds limit --limit-t 20000\n"),
    "agl-3-4": (["--subgroup", "agl", "--p", "3", "--d", "4"],
                "refused: intersection too large to enumerate: smaller group has order "
                "1965150720, limit 2000000\n"),
    "agl-3-2-limit-enum": (["--subgroup", "agl", "--p", "3", "--d", "2", "--limit-enum", "100"],
                           "refused: intersection too large to enumerate: smaller group has "
                           "order 432, limit 100\n"),
    "wreath-5-2": (["--subgroup", "wreath", "--m", "5", "--k", "2"],
                   "refused: coset index 7755605021665492992000000/14400 = "
                   "538583682060103680000 exceeds limit --limit-t 20000\n"),
    "wreath-5-3": (["--subgroup", "wreath", "--m", "5", "--k", "3"],
                   "refused: intersection too large to enumerate: smaller group has order "
                   "10368000, limit 2000000\n"),
}


@pytest.mark.parametrize("case", sorted(A_REFUSALS))
def test_oracle_ambient_a_refusals_enumerate_nothing(monkeypatch, capsys, case):
    argv, err = A_REFUSALS[case]

    def enumerated(*args):
        raise AssertionError("a refusal enumerated a group")

    monkeypatch.setattr(PermutationGroup, "_iter_element_tbls", enumerated)
    assert main(["oracle", "--ambient", "A", *argv]) == 2
    assert capsys.readouterr() == ("", err)


# oracle argv -> its refusal, made from |S_n| = n!, |A_n| = max(1, n!/2) and |H ∩ A_n|
# before either group is built; GENS stands for a file holding GENS_FILES[case]
ORACLE_REFUSALS = {
    **{f"A-{case}": (["--ambient", "A", *argv], err) for case, (argv, err) in A_REFUSALS.items()},
    "S-wreath-5-2": (["--ambient", "S", "--subgroup", "wreath", "--m", "5", "--k", "2"],
                     "refused: coset index 15511210043330985984000000/28800 = "
                     "538583682060103680000 exceeds limit --limit-t 20000\n"),
    "S-agl-3-4": (["--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "4"],
                  f"refused: coset index {math.factorial(81)}/1965150720 = "
                  f"{math.factorial(81) // 1965150720} exceeds limit --limit-t 20000\n"),
    "S-agl-3-5": (["--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "5"],
                  f"refused: coset index {math.factorial(243)}/115562653240320 = "
                  f"{math.factorial(243) // 115562653240320} exceeds limit --limit-t 20000\n"),
    "S-agl-3-6": (["--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "6"],
                  f"refused: coset index {math.factorial(729)}/61330486826476707840 = "
                  f"{math.factorial(729) // 61330486826476707840} exceeds limit --limit-t 20000\n"),
    "A-agl-3-5": (["--ambient", "A", "--subgroup", "agl", "--p", "3", "--d", "5"],
                  "refused: intersection too large to enumerate: smaller group has order "
                  "115562653240320, limit 2000000\n"),
    "S-wreath-5-4": (["--ambient", "S", "--subgroup", "wreath", "--m", "5", "--k", "4"],
                     f"refused: coset index {math.factorial(625)}/4976640000 = "
                     f"{math.factorial(625) // 4976640000} exceeds limit --limit-t 20000\n"),
    "S-wreath-4-2": (["--ambient", "S", "--subgroup", "wreath", "--m", "4", "--k", "2"],
                     "invalid parameters: m must be at least 5, got 4\n"),
    "S-agl-3-2-limit-enum": (["--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "2",
                              "--limit-enum", "100"],
                             "refused: subgroup order 432 exceeds enumeration limit 100\n"),
    "S-agl-3-1": (["--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "1"],
                  "invalid parameters: degree 3 < 7 is out of range\n"),
    "S-natural-7-limit-t": (["--ambient", "S", "--subgroup", "natural", "--n", "7",
                             "--limit-t", "5"],
                            "refused: coset index 5040/720 = 7 exceeds limit --limit-t 5\n"),
    "A-natural-7-limit-t": (["--ambient", "A", "--subgroup", "natural", "--n", "7",
                             "--limit-t", "5"],
                            "refused: coset index 2520/360 = 7 exceeds limit --limit-t 5\n"),
    "A-natural-100-limit-enum": (["--ambient", "A", "--subgroup", "natural", "--n", "100",
                                  "--limit-t", "1000"],
                                 f"refused: subgroup order {math.factorial(99) // 2} exceeds "
                                 f"enumeration limit 2000000\n"),
    "S-explicit-limit-t": (["--ambient", "S", "--subgroup", "explicit", "--gens-file", "GENS",
                            "--limit-t", "100"],
                           "refused: coset index 5040/1 = 5040 exceeds limit --limit-t 100\n"),
    "A-explicit-odd": (["--ambient", "A", "--subgroup", "explicit", "--gens-file", "GENS"],
                       "usage error: supplied generators do not lie in the ambient group\n"),
    "A-explicit-degree-2-odd": (["--ambient", "A", "--subgroup", "explicit",
                                 "--gens-file", "GENS"],
                                "usage error: supplied generators do not lie in the ambient "
                                "group\n"),
    "S-explicit-whole": (["--ambient", "S", "--subgroup", "explicit", "--gens-file", "GENS"],
                         "invalid parameters: subgroup equals the whole group; "
                         "the coset action is trivial\n"),
    # H's chain is refused while it is built: its orbits so far, 5 and 4, give |H| >= 20
    "S-explicit-whole-limit-enum": (["--ambient", "S", "--subgroup", "explicit",
                                     "--gens-file", "GENS", "--limit-enum", "5"],
                                    "refused: subgroup order at least 20 exceeds enumeration "
                                    "limit 5\n"),
    "A-explicit-limit-enum": (["--ambient", "A", "--subgroup", "explicit", "--gens-file", "GENS",
                               "--limit-enum", "3"],
                              "refused: subgroup order 7 exceeds enumeration limit 3\n"),
    "S-explicit-no-gens-file": (["--ambient", "S", "--subgroup", "explicit"],
                                "usage error: --subgroup explicit requires --gens-file\n"),
    "S-natural-2": (["--ambient", "S", "--subgroup", "natural", "--n", "2"],
                    "usage error: natural action needs n >= 3\n"),
}
GENS_FILES = {
    "S-explicit-limit-t": "7\n",
    "A-explicit-odd": "5\n(1 2 3 4 5)\n(2 3 5 4)\n",
    "A-explicit-degree-2-odd": "2\n(1 2)\n",
    "S-explicit-whole": "5\n(1 2)\n(1 2 3 4 5)\n",
    "S-explicit-whole-limit-enum": "5\n(1 2)\n(1 2 3 4 5)\n",
    "A-explicit-limit-enum": "7\n(1 2 3 4 5 6 7)\n",
}


def _refuse_builds(monkeypatch):
    """Make building S_n, A_n, AGL(d, p) or S_m wr S_k fail the test."""
    def built(*args):
        raise AssertionError(f"a refusal built a group for {args}")

    for module, name in ((cli, "symmetric_group"), (cli, "alternating_group"),
                         (affine, "build_agl"), (wreath, "build_wreath")):
        monkeypatch.setattr(module, name, built)


@pytest.mark.parametrize("case", sorted(ORACLE_REFUSALS))
def test_oracle_index_refusal_builds_no_ambient_group(monkeypatch, tmp_path, capsys, case):
    """Every oracle refusal that orders decide is made before S_n, A_n or H is built."""
    argv, err = ORACLE_REFUSALS[case]
    if case in GENS_FILES:
        gens = tmp_path / "gens.txt"
        gens.write_text(GENS_FILES[case])
        argv = [str(gens) if a == "GENS" else a for a in argv]

    _refuse_builds(monkeypatch)
    assert main(["oracle", *argv]) == 2
    assert capsys.readouterr() == ("", err)


# ambient, a generator file of degree 3,000,000 -> its stderr, in the order of the checks:
# the file's text, then the parity of its cycles under A, then the degree cap
EXPLICIT_BIG_DEGREE = {
    "S-cap": ("S", "3000000\n(1 2)\n", "refused: degree 3000000 exceeds the oracle's cap 1000\n"),
    "A-odd": ("A", "3000000\n(1 2)\n",
              "usage error: supplied generators do not lie in the ambient group\n"),
    "A-even-cap": ("A", "3000000\n(1 2 3)\n(4 5)(6 7)\n(9)\n",
                   "refused: degree 3000000 exceeds the oracle's cap 1000\n"),
    "A-bad-token": ("A", "3000000\n(1 2)\n(1 2 x)\n", "invalid parameters: bad point token 'x'\n"),
    "S-out-of-range": ("S", "3000000\n(1 3000001)\n",
                       "invalid parameters: point 3000001 out of range 1..3000000\n"),
}


@pytest.mark.parametrize("case", sorted(EXPLICIT_BIG_DEGREE))
def test_oracle_explicit_refusal_reads_only_the_text(monkeypatch, tmp_path, capsys, case):
    """No table of length degree is made: the work before the refusal is bounded by the text."""
    import tracemalloc
    from irrbase import group

    ambient, text, err = EXPLICIT_BIG_DEGREE[case]
    gens = tmp_path / "gens.txt"
    gens.write_text(text)

    def tabled(*args):
        raise AssertionError("a generator was tabled before the refusal")

    for module in (cli, group):
        monkeypatch.setattr(module, "_cycles_tbl", tabled)
    _refuse_builds(monkeypatch)
    tracemalloc.start()
    try:
        code = main(["oracle", "--ambient", ambient, "--subgroup", "explicit",
                     "--gens-file", str(gens)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr() == ("", err)
    assert peak < 1 << 20  # one table of 3,000,000 entries takes 24 MB


# chain argv -> its stderr, decided from |H| = family_order before H is built, in the
# precedence of usage, the family's rules (parameters, then degree >= 7) and the --limit-enum cap
CHAIN_REFUSALS = {
    **{f"affine-3-{d}": (["--family", "affine", "--p", "3", "--d", str(d)],
                         f"refused: subgroup order {order} exceeds enumeration limit 2000000\n")
       for d, order in ((4, 1965150720), (5, 115562653240320), (6, 61330486826476707840))},
    "wreath-5-3": (["--family", "wreath", "--m", "5", "--k", "3"],
                   "refused: subgroup order 10368000 exceeds enumeration limit 2000000\n"),
    "wreath-6-3": (["--family", "wreath", "--m", "6", "--k", "3"],
                   "refused: subgroup order 2239488000 exceeds enumeration limit 2000000\n"),
    "affine-p-2": (["--family", "affine", "--p", "2", "--d", "3"],
                   "invalid parameters: odd p required\n"),
    "affine-p-4": (["--family", "affine", "--p", "4", "--d", "2"],
                   "invalid parameters: p = 4 is not prime\n"),
    "affine-3-1-limit-enum": (["--family", "affine", "--p", "3", "--d", "1", "--limit-enum", "1"],
                              "invalid parameters: degree 3 < 7 is out of range\n"),
    "wreath-4-2": (["--family", "wreath", "--m", "4", "--k", "2"],
                   "invalid parameters: m must be at least 5, got 4\n"),
}


@pytest.mark.parametrize("case", sorted(CHAIN_REFUSALS))
def test_chain_refusal_builds_no_group(monkeypatch, capsys, case):
    argv, err = CHAIN_REFUSALS[case]
    _refuse_builds(monkeypatch)
    assert main(["chain", *argv]) == 2
    assert capsys.readouterr() == ("", err)


# one family rule -> (p, d) that break it, and the one stderr line of chain, oracle and bounds
FAMILY_RULES = {
    "p-2": ((2, 3), "invalid parameters: odd p required\n"),
    "p-4": ((4, 2), "invalid parameters: p = 4 is not prime\n"),
    "degree-5": ((5, 1), "invalid parameters: degree 5 < 7 is out of range\n"),
}


@pytest.mark.parametrize("command", ["chain", "oracle", "bounds"])
@pytest.mark.parametrize("case", sorted(FAMILY_RULES))
def test_family_rule_reads_the_same_in_every_subcommand(monkeypatch, capsys, case, command):
    (p, d), err = FAMILY_RULES[case]
    argv = {"chain": ["--family", "affine"], "oracle": ["--ambient", "S", "--subgroup", "agl"],
            "bounds": ["--n", str(p**d), "--family", "agl"]}[command]
    _refuse_builds(monkeypatch)
    assert main([command, *argv, "--p", str(p), "--d", str(d)]) == 2
    assert capsys.readouterr() == ("", err)


BIG_PRIME = 100000000000000000039
RAISED_LIMIT = str(10**41)  # admits |AGL(1, BIG_PRIME)|

# refusals of a degree too large to build or an order too long to print in full under
# Python's int-to-str limit (4300 digits): one short `refused:` line, no group built
BIG_REFUSALS = {
    "oracle-agl-3-7": (["oracle", "--ambient", "S", "--subgroup", "agl", "--p", "3", "--d", "7"],
                       "refused: degree 2187 exceeds the oracle's cap 1000\n"),
    "oracle-agl-3-100": (["oracle", "--ambient", "A", "--subgroup", "agl", "--p", "3",
                          "--d", "100"],
                         "refused: degree 3^100 exceeds the oracle's cap 1000\n"),
    "oracle-natural-1700": (["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "1700"],
                            "refused: degree 1700 exceeds the oracle's cap 1000\n"),
    "chain-affine-3-100": (["chain", "--family", "affine", "--p", "3", "--d", "100"],
                           "refused: subgroup order about 10^4818.7 exceeds enumeration limit "
                           "2000000\n"),
    "oracle-agl-1009-1": (["oracle", "--ambient", "S", "--subgroup", "agl", "--p", "1009",
                           "--d", "1"],
                          "refused: degree 1009 exceeds the oracle's cap 1000\n"),
    # a 21-digit prime p, whose primality once took 10^10 trial divisions
    "oracle-agl-big-prime": (["oracle", "--ambient", "S", "--subgroup", "agl",
                              "--p", "100000000000000000039", "--d", "1"],
                             "refused: degree 100000000000000000039 exceeds the oracle's cap "
                             "1000\n"),
    "chain-affine-big-prime": (["chain", "--family", "affine", "--p", "100000000000000000039",
                                "--d", "1"],
                               "refused: subgroup order 10000000000000000007700000000000000001482 "
                               "exceeds enumeration limit 2000000\n"),
    # |AGL(1, p)| is under the raised limit, but build_agl would walk all p points
    "chain-affine-big-prime-raised-limit": (["chain", "--family", "affine", "--p", str(BIG_PRIME),
                                             "--d", "1", "--limit-enum", RAISED_LIMIT],
                                            f"refused: degree {BIG_PRIME} exceeds the family's "
                                            f"cap 2048\n"),
    # the least p that Miller-Rabin over the primes 2..41 cannot decide
    "chain-affine-untestable-p": (["chain", "--family", "affine",
                                   "--p", "3317044064679887385961981", "--d", "1"],
                                  "invalid parameters: 3317044064679887385961981 is too large to "
                                  "test for primality: the test is exact only below "
                                  "3317044064679887385961981\n"),
}

# chain argv -> its refusal from a lower bound on |H|, made before |H| or p^d is formed:
# |AGL(d, p)| >= 2^(d^2 (bits(p) - 1)), and j! >= 2^(j (bits(j) - 2.5)) in (m!)^k k!
FLOOR_REFUSALS = {
    "affine-3-3000000": (["--family", "affine", "--p", "3", "--d", "3000000"], "2^9000000000000"),
    # the first d whose bound passes 2^21 bits; d = 1448 still states |H| exactly
    "affine-3-1449": (["--family", "affine", "--p", "3", "--d", "1449"], "2^2099601"),
    "affine-1000003-3000": (["--family", "affine", "--p", "1000003", "--d", "3000"],
                            "2^171000000"),
    "wreath-5-3000000": (["--family", "wreath", "--m", "5", "--k", "3000000"], "2^64500000"),
    "wreath-3000000-2": (["--family", "wreath", "--m", "3000000", "--k", "2"], "2^116999999"),
}


@pytest.mark.parametrize("case", sorted(BIG_REFUSALS))
def test_big_refusals_are_one_short_line(monkeypatch, capsys, case):
    argv, err = BIG_REFUSALS[case]
    _refuse_builds(monkeypatch)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("case", sorted(FLOOR_REFUSALS))
def test_chain_floor_refusal_forms_no_order(monkeypatch, capsys, case):
    argv, bound = FLOOR_REFUSALS[case]
    _refuse_builds(monkeypatch)

    def formed(*args):
        raise AssertionError(f"a floor refusal formed the order of {args}")

    monkeypatch.setattr(cli, "family_order", formed)
    assert main(["chain", *argv]) == 2
    assert capsys.readouterr() == (
        "", f"refused: subgroup order at least {bound} exceeds enumeration limit 2000000\n")


@pytest.mark.parametrize("family, params", [
    *(("agl", {"p": p, "d": d}) for p in (3, 5, 7, 11, 31) for d in range(1, 9)),
    *(("wreath", {"m": m, "k": k}) for m in range(5, 12) for k in range(2, 7)),
    *(("natural", {"n": n}) for n in (5, 7, 10, 33, 100, 1000, 4097)),
    *(("wreath", {"m": m, "k": k}) for m, k in ((100, 2), (1000, 2), (4097, 3), (5, 1000))),
])
def test_chain_floor_is_a_lower_bound(monkeypatch, family, params):
    """With every bound checked, 2^b never exceeds the family's order."""
    from irrbase.group import LimitExceeded

    base, exp = (params["n"], 1) if family == "natural" else params.values()
    order = certificate.family_order(family, params, base**exp, "S")
    certificate.check_family_floor(family, params, 1)  # b is far below 2^21: nothing refused
    monkeypatch.setattr(certificate, "_FLOOR_BITS", -1)
    with pytest.raises(LimitExceeded, match=r"^subgroup order at least 2\^\d+ ") as info:
        certificate.check_family_floor(family, params, 1)
    assert 2 ** int(str(info.value).split()[4][2:]) <= order


def test_natural_floor_admits_every_n_whose_order_forms_quickly():
    """(n-1)! takes well under a second up to n = 135,301, the last n the floor lets through."""
    from irrbase.group import LimitExceeded

    certificate.check_family_floor("natural", {"n": 135_301}, 1)
    with pytest.raises(LimitExceeded, match=r"^subgroup order at least 2\^2097165 "):
        certificate.check_family_floor("natural", {"n": 135_302}, 1)


def test_wreath_floor_admits_every_m_whose_order_forms_quickly():
    """(m!)^2 2! takes well under a second up to m = 72,315, the last m the floor lets
    through at k = 2; at m = 10^6, (m!)^2 took 10 s to form."""
    from irrbase.group import LimitExceeded

    certificate.check_family_floor("wreath", {"m": 72_315, "k": 2}, 1)
    with pytest.raises(LimitExceeded, match=r"^subgroup order at least 2\^2097163 "):
        certificate.check_family_floor("wreath", {"m": 72_316, "k": 2}, 1)


def test_oracle_degree_cap_admits_its_bound(tmp_path, capsys):
    """The cap refuses a degree over 1000 only: at 1000 the next refusal is the index."""
    argv = ["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "1000", "--limit-t", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("refused: coset index ")


def test_order_text_full_within_the_int_to_str_limit():
    from irrbase.group import LimitExceeded, check_intersect_limit, check_subgroup_limit

    for order, text in ((10**4300 - 1, "9" * 4300), (10**4300, "about 10^4300.0")):
        with pytest.raises(LimitExceeded) as info:
            check_subgroup_limit(order, 1)
        assert str(info.value) == f"subgroup order {text} exceeds enumeration limit 1"
        with pytest.raises(LimitExceeded) as info:
            check_intersect_limit(order, 1)
        assert str(info.value).endswith(f"smaller group has order {text}, limit 1")


@pytest.mark.parametrize("seed", range(6))
def test_oracle_explicit_parity_is_membership_in_a_n(tmp_path, capsys, seed):
    """The explicit family's closed-form test, every generator even, is H <= A_n."""
    rng = random.Random(seed)
    gens = tmp_path / "gens.txt"
    for _ in range(20):
        n = rng.randint(1, 7)
        perms = []
        for _ in range(rng.randint(0, 3)):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(images))
        gens.write_text("\n".join([str(n), *map(print_cycles, perms)]) + "\n")
        member = PermutationGroup(perms, n).is_subgroup_of(alternating_group(n))
        argv = ["oracle", "--ambient", "A", "--subgroup", "explicit", "--gens-file", str(gens),
                "--limit-t", "0"]  # every index is over 0, so an accepted H is refused next
        assert main(argv) == 2
        err = capsys.readouterr().err
        if member:
            assert err.startswith("refused: coset index "), (n, perms, err)
        else:
            assert err == "usage error: supplied generators do not lie in the ambient group\n"


def test_verify_agl_non_prime_p_exits_2(tmp_path, capsys):
    data = affine_chain(build_agl(7, 1)).to_dict()
    data["degree"] = 81
    data["subgroup"]["params"] = {"p": 9, "d": 2}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", "invalid parameters: p = 9 is not prime\n")


def test_verify_agl_builds_no_group_for_the_family_order(cert_files, monkeypatch, capsys):
    """The family order is a closed form: verify never builds AGL(d, p)."""
    def built(*args):
        raise AssertionError("verify built AGL(d, p)")

    monkeypatch.setattr(affine, "build_agl", built)
    assert main(["verify", cert_files["c32"]]) == 0
    assert capsys.readouterr() == (
        "level 0: claimed 432, computed 432: pass\n"
        "level 1: claimed 12, computed 12: pass\n"
        "level 2: claimed 4, computed 4: pass\n"
        "level 3: claimed 2, computed 2: pass\n"
        "level 4: claimed 1, computed 1: pass\n"
        "certificate VERIFIED\n",
        "",
    )


def test_verify_natural_checks_the_family_order(tmp_path, capsys):
    """An H of order 42 is not the natural point stabilizer of S_7, of order 6!."""
    data = affine_chain(build_agl(7, 1)).to_dict()
    data["subgroup"].update(family="natural", params={"n": 7})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "subgroup order 42 does not match the natural family order 720\n"
    )


def _one_level_wreath_a_certificate(path, m):
    """An ambient-A certificate of M(m, 2) with level 0 alone, claiming |M|."""
    big = build_wreath(m, 2).M
    path.write_text(json.dumps({
        "degree": m * m, "ambient": "A",
        "subgroup": {"family": "wreath", "params": {"k": 2, "m": m},
                     "generators": [print_cycles(g) for g in big.generators]},
        "levels": [{"conjugators": ["()"], "order": str(big.order())}], "claimed_length": 1,
    }))


def test_verify_wreath_inside_a_n_keeps_its_order(tmp_path, capsys):
    """M(8,2) lies in A_64, so its family order under A is |M| and only the cap refuses it."""
    path = tmp_path / "w82.json"
    _one_level_wreath_a_certificate(path, 8)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "refused: subgroup order 3251404800 exceeds enumeration limit 2000000\n"
    )


def test_verify_wreath_with_odd_element_halves_its_order(tmp_path, capsys):
    """M(6,2) has an odd element: H ∩ A_36 has index 2, so all of M is not the family's H."""
    path = tmp_path / "w62.json"
    _one_level_wreath_a_certificate(path, 6)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "subgroup order 1036800 does not match the wreath family order 518400\n"
    )


def test_verify_stops_at_level_lacking_identity(tmp_path, capsys):
    data = affine_chain(build_agl(3, 2)).to_dict()
    data["levels"][3]["conjugators"].remove("()")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        "level 0: claimed 432, computed 432: pass\n"
        "level 1: claimed 12, computed 12: pass\n"
        "level 2: claimed 4, computed 4: pass\n"
        "level 3: claimed 2, computed ?: FAIL (conjugator set lacks the identity)\n"
        "certificate INVALID\n"
    )


MALFORMED = {
    "params-lack-p": lambda d: d["subgroup"]["params"].pop("p"),
    "params-strings": lambda d: d["subgroup"].update(params={"p": "7", "d": "1"}),
    "params-list": lambda d: d["subgroup"].update(params=[7, 1]),
    "generators-int": lambda d: d["subgroup"].update(generators=5),
    "degree-bool": lambda d: d.update(degree=True),
    "claimed-length-bool": lambda d: d.update(claimed_length=True),
    "ambient-T": lambda d: d.update(ambient="T"),
    "family-psl": lambda d: d["subgroup"].update(family="psl"),
    # refused before building AGL(3, 101) on 1,030,301 points
    "p101-d3-on-degree-7": lambda d: d["subgroup"].update(params={"p": 101, "d": 3}),
    "wreath-m5-k2-on-degree-7": lambda d: d["subgroup"].update(
        family="wreath", params={"m": 5, "k": 2}
    ),
    "levels-int": lambda d: d.update(levels=5),
    "levels-null": lambda d: d.update(levels=None),
    # an order is read as the decimal string that to_dict writes, nothing else
    "order-float": lambda d: d["levels"][1].update(order=6.7),
    "order-bool": lambda d: d["levels"][3].update(order=True),
    "order-infinity": lambda d: d["levels"][1].update(order=float("inf")),
    "order-underscore": lambda d: d["levels"][1].update(order="1_2"),
    "order-signed": lambda d: d["levels"][1].update(order="+6"),
    "natural-n99-on-degree-7": lambda d: d["subgroup"].update(family="natural", params={"n": 99}),
    "natural-no-params": lambda d: d["subgroup"].update(family="natural", params={}),
    # integers past Python's int-to-str limit, which json.loads refuses to parse
    "degree-5000-digits": lambda d: d.update(degree=BIG_INT),
    "param-5000-digits": lambda d: d["subgroup"]["params"].update(p=BIG_INT),
}


BIG_INT = "BIG_INT"  # written into the JSON text as a 5000-digit integer


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, case):
    data = affine_chain(build_agl(7, 1)).to_dict()
    MALFORMED[case](data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data).replace(f'"{BIG_INT}"', "7" * 5000))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed certificate: ")
    if "5000-digits" in case:
        assert err.startswith("malformed certificate: invalid JSON: ") and err.count("\n") == 1


def _small_certificate(degree, family, params, generator="(1 2)") -> dict:
    return {"degree": degree, "ambient": "S",
            "subgroup": {"family": family, "params": params, "generators": [generator]},
            "levels": [{"conjugators": ["()"], "order": "2"}], "claimed_length": 1}


# a certificate too large to check -> verify's one stderr line, before any cycle is parsed:
# an explicit degree over the oracle's cap, a family |H ∩ G| over --limit-enum or a family
# degree over its cap; then any verify flags
VERIFY_REFUSALS = {
    "explicit-degree-10^20": (_small_certificate(10**20, "explicit", {}),
                              "refused: degree 100000000000000000000 exceeds the oracle's cap "
                              "1000\n"),
    "explicit-degree-3*10^7": (_small_certificate(30_000_000, "explicit", {}),
                               "refused: degree 30000000 exceeds the oracle's cap 1000\n"),
    "agl-3-60": (_small_certificate(3**60, "agl", {"p": 3, "d": 60}),
                 "refused: subgroup order {agl_3_60} exceeds enumeration limit 2000000\n"),
    "agl-3-60-bad-cycle": (_small_certificate(3**60, "agl", {"p": 3, "d": 60}, "(1 x)"),
                           "refused: subgroup order {agl_3_60} exceeds enumeration limit "
                           "2000000\n"),
    # |S_99999| = 99999! is formed, and refused as about 10^456568.5
    "natural-100000": (_small_certificate(100_000, "natural", {"n": 100_000}),
                       "refused: subgroup order about 10^456568.5 exceeds enumeration limit "
                       "2000000\n"),
    # (10^6!)^2 2! >= 2^34999999 is refused without forming it
    "wreath-1000000-2": (_small_certificate(10**12, "wreath", {"m": 10**6, "k": 2}),
                         "refused: subgroup order at least 2^34999999 exceeds enumeration "
                         "limit 2000000\n"),
    # 399999! >= 2^6599983 is refused without forming it
    "natural-400000": (_small_certificate(400_000, "natural", {"n": 400_000}),
                       "refused: subgroup order at least 2^6599983 exceeds enumeration limit "
                       "2000000\n"),
    # |AGL(1, p)| is under the raised limit, but a table of degree p cannot be held
    "agl-big-prime-1": (_small_certificate(BIG_PRIME, "agl", {"p": BIG_PRIME, "d": 1}),
                        f"refused: degree {BIG_PRIME} exceeds the family's cap 2048\n",
                        "--limit-enum", RAISED_LIMIT),
}


@pytest.mark.parametrize("case", sorted(VERIFY_REFUSALS))
def test_verify_refuses_a_certificate_too_large_to_check(monkeypatch, tmp_path, capsys, case):
    """Exit 2 with one refusal line within a second, before any cycle string is parsed."""
    from irrbase.certificate import family_order

    def parsed(*args):
        raise AssertionError(f"a cycle was parsed before the refusal: {args}")

    data, err, *flags = VERIFY_REFUSALS[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    err = err.format(agl_3_60=family_order("agl", {"p": 3, "d": 60}, 3**60, "S"))
    monkeypatch.setattr(certificate, "parse_cycles", parsed)
    start = time.perf_counter()
    assert main(["verify", *flags, str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", err)


def _cycle(n: int) -> str:
    return "(" + " ".join(map(str, range(1, n + 1))) + ")"


# argv (CERT, GENS: the files) and the degree n of an H generated by (1 2) and (1 2 ... n),
# S_n, from outside the program -> the lower bound on |H| at which H's chain is refused
# while it is built, once its first orbits multiply past --limit-enum
UNBOUNDED_H = {
    "verify-explicit-300": (["verify", "CERT"], "explicit", {}, 300, "26730600"),
    # |AGL(1, 293)| = 85,556 passes every header check
    "verify-agl-293": (["verify", "CERT"], "agl", {"p": 293, "d": 1}, 293, "24896796"),
    "oracle-explicit-300": (["oracle", "--ambient", "S", "--subgroup", "explicit",
                             "--gens-file", "GENS"], "explicit", {}, 300, "26730600"),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_H))
def test_outside_generators_are_refused_while_h_is_built(tmp_path, capsys, case):
    argv, family, params, n, bound = UNBOUNDED_H[case]
    cert = _small_certificate(n, family, params)
    cert["subgroup"]["generators"] = ["(1 2)", _cycle(n)]
    files = {"CERT": tmp_path / "c.json", "GENS": tmp_path / "g.gens"}
    files["CERT"].write_text(json.dumps(cert))
    files["GENS"].write_text(f"{n}\n(1 2)\n{_cycle(n)}\n")
    start = time.perf_counter()
    assert main([str(files.get(a, a)) for a in argv]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"refused: subgroup order at least {bound} exceeds "
                                       f"enumeration limit 2000000\n")


def test_verify_certificate_without_levels_fails(tmp_path, capsys):
    data = affine_chain(build_agl(7, 1)).to_dict()
    data["levels"] = []
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("level 0: claimed 0, computed ?: FAIL (certificate has no "
                                   "levels)\ncertificate INVALID\n", "")


def test_verify_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[" * 100_000)
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed certificate: invalid JSON: ")


# -- oracle bytes ----------------------------------------------------------------

GENERATOR_FILES = {
    "agl-3-2.gens": "9\n(2 3)(5 6)(8 9)\n(2 5 8)(3 9 6)\n(4 5 6)(7 9 8)\n"
                    "(1 2 3)(4 5 6)(7 8 9)\n(1 4 7)(2 5 8)(3 6 9)\n",
    # the even part of AGL(2, 3), order 216
    "agl-3-2-even.gens": "9\n(2 5 8)(3 9 6)\n(4 5 6)(7 9 8)\n"
                         "(1 2 3)(4 5 6)(7 8 9)\n(1 4 7)(2 5 8)(3 6 9)\n",
    "m11.gens": "11\n(1 2 3 4 5 6 7 8 9 10 11)\n(3 7 11 8)(4 10 5 6)\n",
}

# oracle argv (generator files by name) -> sha256 of stdout, and of the --out witness
PINNED_ORACLE = {
    "S9-agl-3-2-file": (
        ["--ambient", "S", "--subgroup", "explicit", "--gens-file", "agl-3-2.gens"],
        "699705752ccda570fe11d0d0d3294f43f317f51f9d15581a758a3e8eea9bfaee",
        "1a058a856c97b0584f7dba507773397465a5222e670b162a4b622d5f7339fcc1",
    ),
    "S9-agl-3-2-file-no-prune": (
        ["--ambient", "S", "--subgroup", "explicit", "--gens-file", "agl-3-2.gens", "--no-prune"],
        "699705752ccda570fe11d0d0d3294f43f317f51f9d15581a758a3e8eea9bfaee",
        "1a058a856c97b0584f7dba507773397465a5222e670b162a4b622d5f7339fcc1",
    ),
    "A9-agl-3-2-even-file": (
        ["--ambient", "A", "--subgroup", "explicit", "--gens-file", "agl-3-2-even.gens"],
        "55887c1e903dd31e1041f3b58314f2d48bd9b54b410a610dd494233c3e5337b7",
        "9923540dabebd1ccac649bf73c75bd3fa9267757abe94e64d6b8f65969a5eae4",
    ),
    "S11-m11-file": (
        ["--ambient", "S", "--subgroup", "explicit", "--gens-file", "m11.gens"],
        "87a598a38e1324e631bb61eed27a481127c64e27699ccef7961cddfab49fb1fa",
        "c384e60422cd1e167bac26f54be34b45244ec9ee54cae7307ed6428ee734f6ca",
    ),
    "S11-m11-file-no-prune": (
        ["--ambient", "S", "--subgroup", "explicit", "--gens-file", "m11.gens", "--no-prune"],
        "87a598a38e1324e631bb61eed27a481127c64e27699ccef7961cddfab49fb1fa",
        "c384e60422cd1e167bac26f54be34b45244ec9ee54cae7307ed6428ee734f6ca",
    ),
    "S10-natural": (
        ["--ambient", "S", "--subgroup", "natural", "--n", "10"],
        "9865c675cf61627eabb6953046c4b3f2bf4319392f70856b76b75261105558d4",
        "89a124c771b56dd5c14b405d4542cf5781206b79cd8d8859b63d265ffcc99030",
    ),
    "A10-natural": (
        ["--ambient", "A", "--subgroup", "natural", "--n", "10"],
        "943d596a978bd13477732614a057b0eff2b30c3d63f9c3f5535876fc1eb923aa",
        "b5b6358acfd07e3222872bbf5799b281827a69f596f5650053639807c96ed065",
    ),
    "S8-natural-no-prune": (
        ["--ambient", "S", "--subgroup", "natural", "--n", "8", "--no-prune"],
        "807246cea599540dda14277dcfd97841b4128f0cbea3d0387fd5e446778cdf60",
        "61f5cf50aaf2b9d9b9ce2523533ba927516159dbd649d781abae31ab7018b010",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_ORACLE))
def test_oracle_bytes_pinned(tmp_path, capsys, case):
    argv, stdout_digest, witness_digest = PINNED_ORACLE[case]
    for name, text in GENERATOR_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in GENERATOR_FILES else a for a in argv]
    witness = tmp_path / "witness.json"
    assert main(["oracle", *argv, "--out", str(witness)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == witness_digest


def test_oracle_witness_replay_failure_exits_1(monkeypatch, capsys):
    longest_chain = oracle._longest_chain

    def drop_last_point(*args):
        points, orders, memo = longest_chain(*args)
        return points[:-1], orders[:-1], memo

    monkeypatch.setattr(oracle, "_longest_chain", drop_last_point)
    argv = ["oracle", "--ambient", "S", "--subgroup", "agl", "--p", "7", "--d", "1"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        "internal error: witness replay gave 3 points ending at order 2, "
        "expected 4 points ending at 1\n",
    )


def test_oracle_memo_refusal_message(capsys):
    argv = ["oracle", "--ambient", "S", "--subgroup", "agl", "--p", "7", "--d", "1",
            "--limit-memo", "2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "refused: memo table exceeds limit 2 entries\n")


# a generator file of H -> the order of its core in S_n: A5 in S5 and V4 in S4 are normal
NOT_CORE_FREE_FILES = {
    "A5-in-S5": ("5\n(1 2 3)\n(1 2 3 4 5)\n", 60),
    "V4-in-S4": ("4\n(1 2)(3 4)\n(1 3)(2 4)\n", 4),
}


@pytest.mark.parametrize("flags", [[], ["--limit-memo", "0"], ["--limit-memo", "1"],
                                   ["--no-prune"]], ids=["plain", "memo-0", "memo-1", "no-prune"])
@pytest.mark.parametrize("name", sorted(NOT_CORE_FREE_FILES))
def test_oracle_core_refusal_bytes(tmp_path, capsys, monkeypatch, name, flags):
    """A subgroup with a nontrivial core is refused before any memo limit, in every mode.

    A5 in S5 (t = 2) searches group nodes and is refused from |T(H)|; V4 in
    S4 (t = 6, |H| = 4) reads through the level tables and meets its core.
    """
    text, core = NOT_CORE_FREE_FILES[name]
    gens = tmp_path / "h.gens"
    gens.write_text(text)
    kinds, rule = [], oracle._group_nodes
    monkeypatch.setattr(oracle, "_group_nodes", lambda t, n: kinds.append(rule(t, n)) or kinds[-1])
    argv = ["oracle", "--ambient", "S", "--subgroup", "explicit", "--gens-file", str(gens)]
    assert main(argv + flags) == 2
    assert capsys.readouterr() == (
        "", f"invalid parameters: action not faithful: subgroup has a core of order {core}\n")
    assert kinds == [name == "A5-in-S5"]


# -- verify: ambient parity, one-level and terminal reports ---------------------


def _oracle_witness(tmp_path, *argv) -> dict:
    out = tmp_path / "witness.json"
    assert main(["oracle", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _verify(tmp_path, capsys, data: dict) -> tuple:
    capsys.readouterr()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code = main(["verify", str(path)])
    return code, capsys.readouterr().out


def test_verify_rejects_odd_generator_for_ambient_a(tmp_path, capsys):
    """The S witness on AGL(1, 7), relabelled as an A certificate: H is not in A_7."""
    data = _oracle_witness(tmp_path, "--ambient", "S", "--subgroup", "agl", "--p", "7", "--d", "1")
    data["ambient"], data["subgroup"]["family"] = "A", "explicit"
    assert _verify(tmp_path, capsys, data) == (1, (
        "level 0: claimed 42, computed ?: FAIL "
        "(generator (2 4 3 7 5 6) is odd but the ambient group is A_7)\n"
        "certificate INVALID\n"
    ))


def test_verify_rejects_odd_conjugator_for_ambient_a(tmp_path, capsys):
    """An odd h ∈ AGL(1, 7) normalizes H = AGL(1, 7) ∩ A_7, so H^(hx) = H^x: only parity tells."""
    data = _oracle_witness(tmp_path, "--ambient", "A", "--subgroup", "agl", "--p", "7", "--d", "1")
    assert _verify(tmp_path, capsys, data)[0] == 0
    x = parse_cycles(data["levels"][1]["conjugators"][1], 7)
    odd = print_cycles(compose(parse_cycles("(2 4 3 7 5 6)", 7), x))
    for lvl in data["levels"][1:]:
        lvl["conjugators"][1] = odd
    assert _verify(tmp_path, capsys, data) == (1, (
        "level 0: claimed 21, computed 21: pass\n"
        f"level 1: claimed 3, computed ?: FAIL (conjugator {odd} is odd but the ambient group is A_7)\n"
        "certificate INVALID\n"
    ))


def test_oracle_trivial_subgroup_witness_verifies(tmp_path, capsys):
    """Trivial H in S_2: mibs 1, a one-level witness, one report line."""
    gens = tmp_path / "trivial.gens"
    gens.write_text("2\n")
    data = _oracle_witness(tmp_path, "--ambient", "S", "--subgroup", "explicit",
                           "--gens-file", str(gens))
    assert data["claimed_length"] == 1
    assert _verify(tmp_path, capsys, data) == (
        0, "level 0: claimed 1, computed 1: pass\ncertificate VERIFIED\n"
    )


def test_verify_degree_one_certificate(tmp_path, capsys):
    data = {
        "degree": 1,
        "ambient": "S",
        "subgroup": {"family": "explicit", "params": {}, "generators": []},
        "levels": [{"conjugators": ["()"], "order": "1"}],
        "claimed_length": 1,
    }
    assert _verify(tmp_path, capsys, data) == (
        0, "level 0: claimed 1, computed 1: pass\ncertificate VERIFIED\n"
    )


def test_verify_nontrivial_end_is_one_line(tmp_path, capsys):
    data = affine_chain(build_agl(3, 2)).to_dict()
    del data["levels"][-1]
    data["claimed_length"] -= 1
    assert _verify(tmp_path, capsys, data) == (1, (
        "level 0: claimed 432, computed 432: pass\n"
        "level 1: claimed 12, computed 12: pass\n"
        "level 2: claimed 4, computed 4: pass\n"
        "level 3: claimed 2, computed 2: FAIL (terminal level is not trivial)\n"
        "certificate INVALID\n"
    ))
    data["levels"] = data["levels"][:1]
    data["claimed_length"] = 1
    assert _verify(tmp_path, capsys, data) == (
        1, "level 0: claimed 432, computed 432: FAIL (terminal level is not trivial)\n"
           "certificate INVALID\n"
    )


def test_verify_claimed_length_mismatch_is_level_0_line(tmp_path, capsys):
    data = affine_chain(build_agl(7, 1)).to_dict()
    data["claimed_length"] = 9
    assert _verify(tmp_path, capsys, data) == (1, (
        "level 0: claimed 42, computed 42: FAIL (claimed_length 9 != 4 levels)\n"
        "level 1: claimed 6, computed 6: pass\n"
        "level 2: claimed 3, computed 3: pass\n"
        "level 3: claimed 1, computed 1: pass\n"
        "certificate INVALID\n"
    ))
    data["levels"][0]["conjugators"] = ["(1 2)"]
    assert _verify(tmp_path, capsys, data) == (1, (
        "level 0: claimed 42, computed ?: FAIL (level 0 must carry exactly the identity "
        "conjugator; claimed_length 9 != 4 levels)\n"
        "certificate INVALID\n"
    ))


def test_verify_random_conjugator_level(tmp_path, capsys):
    """A seeded random level-1 conjugator of S_25: M ∩ M^x is trivial, a regular coset orbit.

    The report is the one the enumerating verifier gave, byte for byte.
    """
    data = wreath_chain(build_wreath(5, 2)).to_dict()
    images = list(range(1, 26))
    random.Random(7).shuffle(images)
    data["levels"][1]["conjugators"] = ["()", print_cycles(Permutation(images))]
    assert _verify(tmp_path, capsys, data) == (1, (
        "level 0: claimed 28800, computed 28800: pass\n"
        "level 1: claimed 120, computed 1: FAIL (recomputed order differs from claim)\n"
        "level 2: claimed 30, computed 30: FAIL (level does not strictly descend)\n"
        "level 3: claimed 10, computed 10: pass\n"
        "level 4: claimed 5, computed 5: pass\n"
        "level 5: claimed 1, computed 1: pass\n"
        "certificate INVALID\n"
    ))


_LIMIT_ENUM_HELP = ("cap on |H|, and for an ambient-A oracle on the group\n"
                    "                        listed to intersect H with A_n (default 2000000)\n")

#: the --help text of irrbase and of each subcommand, at 80 columns
HELP = {
    (): (
        "usage: irrbase [-h] {chain,oracle,verify,bounds} ...\n"
        "\n"
        "irredundant-base chains, exact maximum base sizes, and bound checks\n"
        "\n"
        "positional arguments:\n"
        "  {chain,oracle,verify,bounds}\n"
        "    chain               build a chain certificate, its orders from one pass\n"
        "                        over H\n"
        "    oracle              exact maximum irredundant base size of an action\n"
        "    verify              independently verify a certificate file\n"
        "    bounds              evaluate closed-form bounds and criteria\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    ("chain",): (
        "usage: irrbase chain [-h] --family {affine,wreath} [--p P] [--d D] [--m M]\n"
        "                     [--k K] [--format {json,text}] [--out PATH]\n"
        "                     [--limit-enum N]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --family {affine,wreath}\n"
        "  --p P\n"
        "  --d D\n"
        "  --m M\n"
        "  --k K\n"
        "  --format {json,text}\n"
        "  --out PATH            write output to a file\n"
        "  --limit-enum N        " + _LIMIT_ENUM_HELP
    ),
    ("oracle",): (
        "usage: irrbase oracle [-h] --ambient {S,A} --subgroup\n"
        "                      {natural,agl,wreath,explicit} [--n N] [--p P] [--d D]\n"
        "                      [--m M] [--k K] [--gens-file PATH] [--limit-t N]\n"
        "                      [--limit-memo N] [--no-prune] [--format {json,text}]\n"
        "                      [--out PATH] [--limit-enum N]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --ambient {S,A}\n"
        "  --subgroup {natural,agl,wreath,explicit}\n"
        "  --n N\n"
        "  --p P\n"
        "  --d D\n"
        "  --m M\n"
        "  --k K\n"
        "  --gens-file PATH\n"
        "  --limit-t N           cap on the coset index (default 20000)\n"
        "  --limit-memo N        cap on memoized subgroups (default 1000000)\n"
        "  --no-prune            search every point of a non-regular orbit, not one per\n"
        "                        orbit (regression flag; same results)\n"
        "  --format {json,text}\n"
        "  --out PATH            write output to a file\n"
        "  --limit-enum N        " + _LIMIT_ENUM_HELP
    ),
    ("verify",): (
        "usage: irrbase verify [-h] [--limit-enum N] CERT.json\n"
        "\n"
        "positional arguments:\n"
        "  CERT.json\n"
        "\n"
        "options:\n"
        "  -h, --help      show this help message and exit\n"
        "  --limit-enum N  cap on |H|, and for an ambient-A oracle on the group listed\n"
        "                  to intersect H with A_n (default 2000000)\n"
    ),
    ("bounds",): (
        "usage: irrbase bounds [-h] [--n N] [--ambient {S,A}] [--family {agl,wreath}]\n"
        "                      [--p P] [--d D] [--m M] [--k K] [--order-h ORDER]\n"
        "                      [--computed MIBS] [--lemma52] [--format {json,text}]\n"
        "                      [--out PATH]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --n N\n"
        "  --ambient {S,A}       the ambient group, read only by --family and\n"
        "                        --computed; as it has a default, it is never refused\n"
        "                        as unread (default S)\n"
        "  --family {agl,wreath}\n"
        "  --p P\n"
        "  --d D\n"
        "  --m M\n"
        "  --k K\n"
        "  --order-h ORDER\n"
        "  --computed MIBS       a computed mibs value to compare against the bounds\n"
        "  --lemma52             index-growth relation checks (requires --n and\n"
        "                        --order-h)\n"
        "  --format {json,text}\n"
        "  --out PATH            write output to a file\n"
    ),
}


def help_parts(text: str) -> tuple:
    """The usage block's words, then the rest as it is: Python 3.13 breaks usage lines
    in other places than 3.10-3.12 do."""
    usage, rest = text.split("\n\n", 1)
    return usage.split(), rest


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(("irrbase",) + c))
def test_help_text_pinned(monkeypatch, capsys, command):
    """Every option keeps its place, metavar, choices, default and help line."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert (help_parts(out), err) == (help_parts(HELP[command]), "")
