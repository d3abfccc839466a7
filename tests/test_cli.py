import json
import subprocess
import sys

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
