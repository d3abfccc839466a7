"""Workloads of the irrbase benchmark: steps, seeded inputs and the correctness gate.

A workload is a fixed list of CLI steps (``irrbase chain``, ``irrbase verify``,
``irrbase oracle``).  Every workload runs each of the three subcommands at
least once, so that every end-to-end metric is measured on every workload; the
steps outside a workload's focus are small companions that take a few per cent
of its time.

Inputs are made from the seed.  The seed relabels the points of the
generated file inputs (the AGL(2,3) generator files and the certificates fed
to ``verify``) by a random permutation of {1..n}; seed 0 is the identity
relabelling.  Relabelling conjugates every group inside S_n, so every value
and every order is unchanged.  The M11 generator file keeps its standard
labelling: the cost of ``oracle`` on S11/M11 depends on the labelling, in a
few discrete classes (peak RSS 443, 583 or 669 MiB, time up to 1.35x), so a
relabelled M11 would make oracle-deep's figures measure the seed's class.

The references the outputs are checked against are independent of the
program: certificate digests pinned at a known-good commit, closed-form orders
and chain lengths, and exact ``mibs`` values (the oracle-deep values 5, 5 and 6
were confirmed by the unpruned ``--no-prune`` search).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path

STEP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Chain:
    """``irrbase chain``; the certificate is written with ``--out``."""

    family: str  # "affine" (a, b) = (p, d) or "wreath" (a, b) = (m, k)
    a: int
    b: int
    length: int  # closed-form chain length
    digest: str  # sha256 of the certificate bytes
    repeats: int = 1  # invocations per pass

    @property
    def label(self) -> str:
        return f"chain.{self.family}.{self.a}.{self.b}"

    @property
    def degree(self) -> int:
        return self.a**self.b

    @property
    def order_h(self) -> int:
        if self.family == "affine":
            n, p = self.degree, self.a
            order = n
            for i in range(self.b):
                order *= n - p**i
            return order
        return factorial(self.a) ** self.b * factorial(self.b)

    def argv(self, work: Path) -> list:
        names = ("--p", "--d") if self.family == "affine" else ("--m", "--k")
        return ["chain", "--family", self.family, names[0], str(self.a),
                names[1], str(self.b), "--out", str(work / f"{self.label}.json")]


@dataclass(frozen=True)
class Verify:
    """``irrbase verify`` on a relabelled copy of a chain step's certificate."""

    chain: Chain
    repeats: int = 1

    @property
    def label(self) -> str:
        return "verify" + self.chain.label[len("chain"):]

    def input_path(self, work: Path) -> Path:
        return work / f"{self.label}.json"

    def argv(self, work: Path) -> list:
        return ["verify", str(self.input_path(work))]


@dataclass(frozen=True)
class Oracle:
    """``irrbase oracle``; ``gens`` names a generated generator file."""

    name: str
    ambient: str
    subgroup: str  # "natural" | "agl" | "explicit"
    degree: int
    t: int  # coset index
    value: int  # exact mibs
    order_h: int
    p: int = 0  # AGL(d, p) parameters where the subgroup is affine
    d: int = 0
    gens: str = ""
    out: bool = False
    repeats: int = 1

    @property
    def label(self) -> str:
        return f"oracle.{self.name}"

    def witness_path(self, work: Path) -> Path:
        return work / f"{self.label}.witness.json"

    def argv(self, work: Path) -> list:
        argv = ["oracle", "--ambient", self.ambient, "--subgroup", self.subgroup]
        if self.subgroup == "natural":
            argv += ["--n", str(self.degree)]
        elif self.subgroup == "agl":
            argv += ["--p", str(self.p), "--d", str(self.d)]
        else:
            argv += ["--gens-file", str(work / self.gens)]
        if self.out:
            argv += ["--out", str(self.witness_path(work))]
        return argv


AFFINE_3_3 = Chain("affine", 3, 3, 9, "bfc885300b21197dbdac53b336ccf782a7708e519a5028665b42d976f6bdf76e")
AFFINE_7_2 = Chain("affine", 7, 2, 7, "de1f1e449a99686626831c211e1beb1c84f02a748081cd3fd2762614ad419fc8")
AFFINE_3_2 = Chain("affine", 3, 2, 5, "5513d574b133db7ed4d97c56b6fc4a8b492735e64f3afada09efb1832ae311e1",
                   repeats=5)
WREATH_5_2 = Chain("wreath", 5, 2, 6, "a14082ca559c9f18cae4c90481d35ffa1ea39f9ed4899b79ba17dfc66227d4b7")

# Small steps that give the oracle workloads a chain and a verify of each family.
# Steps under about a second repeat, so that their median is steady.
COMPANION_CHAINS = [AFFINE_3_2, Verify(AFFINE_3_2, repeats=7),
                    WREATH_5_2, Verify(WREATH_5_2, repeats=7)]

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    # affine_chain, wreath_chain and the verifier's enumerate-and-filter over |H| at degrees
    # 25-81; no coset action and no search beyond the small companion oracle.
    "certify": [
        AFFINE_3_3, Verify(AFFINE_3_3),
        AFFINE_7_2, Verify(AFFINE_7_2),
        WREATH_5_2, Verify(WREATH_5_2),
        Oracle("s9-agl-3-2", "S", "agl", 9, 840, 5, 432, p=3, d=2, out=True, repeats=5),
    ],
    # |H| large and t tiny: the core-freeness filter and the small-degree
    # enumeration dominate; the search is trivial.
    "oracle-wide": [
        Oracle("s10-natural", "S", "natural", 10, 10, 9, factorial(9)),
        Oracle("a10-natural", "A", "natural", 10, 10, 8, factorial(9) // 2),
        *COMPANION_CHAINS,
    ],
    # H small and t large: mibs's degree-t Schreier-Sims and enumeration dominate.
    "oracle-deep": [
        Oracle("s9-agl-3-2-file", "S", "explicit", 9, 840, 5, 432, p=3, d=2,
               gens="agl-3-2.gens", out=True, repeats=5),
        Oracle("a9-agl-3-2-file", "A", "explicit", 9, 840, 5, 216, p=3, d=2,
               gens="agl-3-2-even.gens", out=True, repeats=5),
        Oracle("s11-m11-file", "S", "explicit", 11, 5040, 6, 7920,
               gens="m11.gens", out=True),
        *COMPANION_CHAINS,
    ],
}


# -- seeded inputs -------------------------------------------------------------


def relabelling(seed: int, n: int, name: str) -> list:
    """sigma[i] is the new label of point i (1-based; sigma[0] unused)."""
    points = list(range(1, n + 1))
    if seed:
        random.Random(f"{seed}/{name}").shuffle(points)
    return [0] + points


def relabel_text(text: str, sigma: list) -> str:
    """Relabel every point of every cycle string in ``text``."""
    return re.sub(r"\([0-9 ]*\)", lambda m: re.sub(
        r"\d+", lambda d: str(sigma[int(d.group())]), m.group()), text)


def relabel_certificate(text: str, seed: int, name: str) -> str:
    """Conjugate a certificate's generators and conjugators by a seeded relabelling.

    (H^s)^(x^s) = (H^x)^s, so every level keeps its order.
    """
    cert = json.loads(text)
    sigma = relabelling(seed, cert["degree"], name)
    sub = cert["subgroup"]
    sub["generators"] = [relabel_text(g, sigma) for g in sub["generators"]]
    for lvl in cert["levels"]:
        lvl["conjugators"] = [relabel_text(x, sigma) for x in lvl["conjugators"]]
    return json.dumps(cert, indent=2) + "\n"


def _closure(gens: list) -> set:
    """All products of 0-based image tuples; composition order is irrelevant here."""
    n = len(gens[0])
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(g[v] for v in a)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def _is_even(tbl: tuple) -> bool:
    seen = [False] * len(tbl)
    transpositions = 0
    for i in range(len(tbl)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = tbl[j]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 0


def _cycles_text(tbl: tuple) -> str:
    seen, out = set(), []
    for i in range(len(tbl)):
        if i in seen or tbl[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1))
            j = tbl[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def _agl_3_2_generators() -> list:
    """AGL(2, 3) on F_3^2, point (x, y) numbered x + 3y: two translations, three matrices."""
    def affine(m, b):
        return tuple(
            ((m[0] * x + m[1] * y + b[0]) % 3) + 3 * ((m[2] * x + m[3] * y + b[1]) % 3)
            for y in range(3) for x in range(3)
        )

    one = (1, 0, 0, 1)
    return [affine(one, (1, 0)), affine(one, (0, 1)),
            affine((1, 1, 0, 1), (0, 0)), affine((1, 0, 1, 1), (0, 0)),
            affine((2, 0, 0, 1), (0, 0))]


def _even_subgroup_generators(gens: list, order: int) -> list:
    """A generating set of the even part of <gens>, which has the given order."""
    even = sorted(g for g in _closure(gens) if _is_even(g))
    chosen, span = [], {even[0]}  # even[0] is the identity
    for g in even:
        if g not in span:
            chosen.append(g)
            span = _closure(chosen)
            if len(span) == order:
                return chosen
    raise ValueError("even part has an unexpected order")


M11_GENERATORS = ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]


def write_generator_files(work: Path, seed: int) -> None:
    """The oracle-deep generator files; the AGL ones relabelled by the seed.

    The AGL orders are checked here by closure; the M11 order is checked through
    the oracle's coset index and the witness's first level.
    """
    agl = _agl_3_2_generators()
    if len(_closure(agl)) != 432:
        raise ValueError("AGL(2,3) generators do not give order 432")
    files = {
        "agl-3-2.gens": (9, [_cycles_text(g) for g in agl]),
        "agl-3-2-even.gens": (9, [_cycles_text(g) for g in _even_subgroup_generators(agl, 216)]),
    }
    for name, (degree, cycles) in files.items():
        sigma = relabelling(seed, degree, name)
        lines = [str(degree)] + [relabel_text(c, sigma) for c in cycles]
        (work / name).write_text("\n".join(lines) + "\n")
    (work / "m11.gens").write_text("\n".join(["11", *M11_GENERATORS]) + "\n")


def prepare_verify_input(step: Verify, work: Path, cert_text: str, seed: int) -> None:
    step.input_path(work).write_text(relabel_certificate(cert_text, seed, step.label))


def setup_constructions(step, work: Path) -> list:
    """The group constructions an invocation of ``step`` pays, as setup_probe.py specs."""
    if isinstance(step, Chain):
        return [["agl" if step.family == "affine" else "wreath", step.a, step.b]]
    if isinstance(step, Verify):
        family = [["agl", step.chain.a, step.chain.b]] if step.chain.family == "affine" else []
        return [["cert", str(step.input_path(work))]] + family
    if step.subgroup == "natural":
        return [["stabilizer", step.ambient, step.degree]]
    subgroup = ["agl", step.p, step.d] if step.subgroup == "agl" else ["gens", str(work / step.gens)]
    return [["ambient", step.ambient, step.degree], subgroup]


# -- correctness gate ----------------------------------------------------------


def check_chain(step: Chain, text: str) -> list:
    """Problems with a chain certificate, against the pinned digest and closed forms."""
    problems = []
    if hashlib.sha256(text.encode()).hexdigest() != step.digest:
        problems.append(f"{step.label}: certificate bytes differ from the pinned digest")
    try:
        cert = json.loads(text)
        orders = [int(lvl["order"]) for lvl in cert["levels"]]
        length = cert["claimed_length"]
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"{step.label}: unreadable certificate ({e})"]
    if length != step.length or len(orders) != step.length:
        problems.append(f"{step.label}: length {length}, expected {step.length}")
    if not orders or orders[0] != step.order_h or orders[-1] != 1:
        problems.append(f"{step.label}: chain does not run from |H| = {step.order_h} to 1")
    if any(a <= b for a, b in zip(orders, orders[1:])):
        problems.append(f"{step.label}: orders do not strictly descend")
    return problems


def certificate_orders(text: str) -> list:
    return [int(lvl["order"]) for lvl in json.loads(text)["levels"]]


_LEVEL = re.compile(r"level (\d+): claimed (\d+), computed (\d+): pass")


def check_verify_report(label: str, rc: int, report: str, orders: list) -> list:
    """Problems with a verify verdict: every level must pass with the certificate's orders."""
    lines = report.strip().splitlines()
    got = [int(m.group(3)) for m in map(_LEVEL.fullmatch, lines[:-1]) if m]
    if rc != 0 or not lines or lines[-1] != "certificate VERIFIED" or got != orders \
            or len(got) != len(lines) - 1:
        return [f"{label}: verify exit {rc}, report does not pass every level with the "
                f"certificate's orders"]
    return []


def check_oracle_value(step: Oracle, value, t) -> list:
    """Problems with an oracle result: exact value, coset index and the affine bounds."""
    problems = []
    if value != step.value or str(t) != str(step.t):
        problems.append(f"{step.label}: mibs {value} at index {t}, expected "
                        f"{step.value} at {step.t}")
    if step.p:
        from irrbase.bounds import affine_mibs_bounds

        ab = affine_mibs_bounds(step.p, step.d, step.ambient)
        inside = value == ab.lower if ab.exact else ab.lower <= value < ab.upper
        if not inside:
            problems.append(f"{step.label}: mibs {value} outside affine_mibs_bounds")
    return problems


def check_oracle_stdout(step: Oracle, text: str) -> list:
    try:
        out = json.loads(text)
        problems = check_oracle_value(step, out["mibs"], out["index"])
        if out["ambient"] != step.ambient or out["degree"] != step.degree:
            problems.append(f"{step.label}: wrong ambient or degree in the output")
        return problems
    except (ValueError, KeyError, TypeError) as e:
        return [f"{step.label}: unreadable oracle output ({e})"]


def check_witness(step: Oracle, text: str) -> list:
    """The witness must be a chain of length mibs from |H| down to 1."""
    orders = certificate_orders(text)
    if len(orders) != step.value or orders[0] != step.order_h or orders[-1] != 1:
        return [f"{step.label}: witness is not a chain of length {step.value} "
                f"from {step.order_h} to 1"]
    return []


# -- running the CLI -----------------------------------------------------------


@dataclass
class Invocation:
    rc: int
    wall_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str


def cli_env(src: Path, seed: int) -> dict:
    """The CLI runs from the checkout's sources; the hash seed follows the run's seed."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed))


def run_cli(argv: list, env: dict, work: Path) -> Invocation:
    """One ``python -m irrbase`` child; see run_child."""
    return run_child([sys.executable, "-m", "irrbase", *argv], env, work)


def run_child(cmd: list, env: dict, work: Path) -> Invocation:
    """One child process, timed from spawn to reap, with its own peak RSS from wait4."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024,
                      out_path.read_text(), err_path.read_text())


def run_passes(run_pass, seconds: float) -> None:
    """Whole passes while the next one is expected to end within ``seconds``; at least one."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return
