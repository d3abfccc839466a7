import hashlib
import json
import subprocess
import sys

import pytest

from irrbase import affine
from irrbase.affine import affine_chain, build_agl
from irrbase.cli import main
from irrbase.group import PermutationGroup, trivial_group

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


def test_bounds_lemma52():
    r = run("bounds", "--lemma52", "--n", "121", "--order-h", "1597200")
    assert r.returncode == 0, r.stderr
    data = json.loads(r.stdout)
    assert data["milestone_ok"] and data["loglog_ok"] and data["ratio_ok"]


def test_bounds_small_n_rejected():
    r = run("bounds", "--n", "6")
    assert r.returncode == 2
    assert "n >= 7" in r.stderr


def test_bounds_text_format():
    r = run("bounds", "--n", "9", "--format", "text")
    assert r.returncode == 0
    assert "binary_weight" in r.stdout


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


# -- in-process runs of the CLI -------------------------------------------------

# sha256 of the certificate bytes, which must stay stable across releases
PINNED_DIGESTS = {
    ("json", "affine", "3", "2"): "5513d574b133db7ed4d97c56b6fc4a8b492735e64f3afada09efb1832ae311e1",
    ("json", "affine", "7", "1"): "fbedbf502606af69136e5ccb389be8e27ebb03d34d6805466af0434b7d1dc8a2",
    ("json", "wreath", "5", "2"): "a14082ca559c9f18cae4c90481d35ffa1ea39f9ed4899b79ba17dfc66227d4b7",
    ("text", "affine", "3", "2"): "c620149e56716a4df8878a44f6134b2867dbbbfa8b9459a8c9e0cdda903eb168",
}


@pytest.mark.parametrize("key", sorted(PINNED_DIGESTS), ids="-".join)
def test_chain_bytes_pinned(tmp_path, key):
    fmt, family, a, b = key
    names = ("--p", "--d") if family == "affine" else ("--m", "--k")
    out = tmp_path / "cert"
    argv = ["chain", "--family", family, names[0], a, names[1], b, "--format", fmt]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DIGESTS[key]


def test_chain_filters_h_once(monkeypatch, capsys):
    """One filter call per level after level 0: H once, then each level's predecessor."""
    pool_sizes = []
    filter_ = PermutationGroup._conjugate_members

    def counted(self, conjugators, pool):
        pool = list(pool)
        pool_sizes.append(len(pool))
        return filter_(self, conjugators, pool)

    monkeypatch.setattr(PermutationGroup, "_conjugate_members", counted)
    assert main(["chain", "--family", "affine", "--p", "3", "--d", "2"]) == 0
    orders = [int(lvl["order"]) for lvl in json.loads(capsys.readouterr().out)["levels"]]
    assert pool_sizes == orders[:-1] == [432, 12, 4, 2]


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


def test_oracle_index_refusal_message(capsys):
    argv = ["oracle", "--ambient", "S", "--subgroup", "natural", "--n", "7", "--limit-t", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "refused: coset index 5040/720 = 7 exceeds limit --limit-t 5\n"


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
    # refused before building AGL(3, 101) on 1,030,301 points
    "p101-d3-on-degree-7": lambda d: d["subgroup"].update(params={"p": 101, "d": 3}),
    "wreath-m5-k2-on-degree-7": lambda d: d["subgroup"].update(
        family="wreath", params={"m": 5, "k": 2}
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, case):
    data = affine_chain(build_agl(7, 1)).to_dict()
    MALFORMED[case](data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("malformed certificate: ")
