"""Traced run: a workload's steps as in-process library calls, with a span per layer call.

Each CLI step is replayed through the same public functions the CLI calls, in
the same order, and every call is wrapped in a span (name, layer, start, end,
parent).  Spans are kept in memory and written to a JSON file at the end.  A
layer's self time is the time of its spans minus the part covered by their
children; the ``harness`` layer is the benchmark's own time inside a step
(file reads and writes).  The table kernel, enumeration and membership are
measured by separate microbenchmarks on the workload's own groups.

``oracle.mibs_rss_mib`` is the peak RSS of a separate child that runs one
oracle step's calls alone (``python3 bench/tracing.py LABEL WORKDIR``), so that
it is not the peak of the other steps in the traced process.

Work counts come from outside the program: elements examined by the chain functions
and the verifier are computed from the certificates' structure, and coset
indices, ``mibs`` values and subgroup orders from the results.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from irrbase import (
    ChainCertificate,
    OracleLimits,
    Permutation,
    PermutationGroup,
    affine_chain,
    alternating_group,
    build_agl,
    build_coset_action,
    build_wreath,
    compose,
    intersect,
    mibs,
    read_generator_file,
    symmetric_group,
    verify_certificate,
    wreath_chain,
)

from workloads import (
    COMPANION_CHAINS,
    WORKLOADS,
    Chain,
    Oracle,
    Verify,
    certificate_orders,
    check_chain,
    check_oracle_value,
    check_verify_report,
    check_witness,
    prepare_verify_input,
    run_child,
    run_cli,
    run_passes,
)

LAYERS = ("group", "affine", "wreath", "certificate", "oracle.verify", "oracle.action",
          "oracle.mibs", "harness")
GROUP_BUILDS = {"group.build_agl", "group.build_wreath", "group.symmetric_group",
                "group.alternating_group", "group.point_stabilizer",
                "group.PermutationGroup", "group.read_generator_file"}
ENUM_SAMPLE = 200_000
CONTAINS_SAMPLE = 20_000
COMPOSE_CALLS = {81: 20_000, 5040: 300}
CLI_PROBE_MAX_S = 1.0  # steps faster than this in the library are also timed through the CLI
CLI_PROBE_REPEATS = 3
COUNTERS = ("affine.elements_examined", "wreath.elements_examined",
            "oracle.verify_elements_examined", "oracle.action_t", "oracle.mibs_value",
            "oracle.mibs_h_order", "certificate.bytes")


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, spans: list) -> dict:
        """Self time per layer over the given spans and their descendants."""
        covered = {}
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = {}
        for s in spans:
            own = s["end"] - s["start"] - covered.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        path.write_text(json.dumps(rows, indent=1) + "\n")


def _verifier_examined(text: str) -> int:
    """Elements the verifier filters, from the certificate's structure.

    Level 1 filters all of H; a later level filters the previous level when its
    conjugator set contains the previous one, and all of H otherwise.
    """
    levels = json.loads(text)["levels"]
    orders = [int(lvl["order"]) for lvl in levels]
    examined, pool, prev = 0, None, set(levels[0]["conjugators"])
    for i in range(1, len(levels)):
        conj = set(levels[i]["conjugators"])
        examined += pool if pool is not None and prev <= conj else orders[0]
        pool, prev = orders[i], conj
    return examined


class TracedRun:
    """Replays one workload's steps in-process and collects per-pass layer figures."""

    def __init__(self, steps: list, work: Path, seed: int):
        self.steps = steps
        self.work = work
        self.seed = seed
        self.tr = Tracer()
        self.certs = {}  # chain label -> certificate text
        self.groups = []  # (order, H, conjugator) for the focus steps of pass 0
        self.lib_s = {}  # step label -> library time in pass 0
        self.passes = []  # per-pass dict of counters
        self.witness = None  # (certificate, H) written by the last oracle step
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- the CLI steps, call for call ------------------------------------------

    def _chain(self, step: Chain, count: dict) -> list:
        tr = self.tr
        if step.family == "affine":
            with tr.span("group.build_agl", "group"):
                ctx = build_agl(step.a, step.b)
            h = ctx.H
            with tr.span("affine.affine_chain", "affine"):
                cert = affine_chain(ctx)
        else:
            with tr.span("group.build_wreath", "group"):
                ctx = build_wreath(step.a, step.b)
            h = ctx.M
            with tr.span("wreath.wreath_chain", "wreath"):
                cert = wreath_chain(ctx)
        with tr.span("oracle.verify_certificate", "oracle.verify"):
            report = verify_certificate(cert, h)
        with tr.span("certificate.to_json", "certificate"):
            text = cert.to_json()
        (self.work / f"{step.label}.json").write_text(text)
        self.certs[step.label] = text
        orders = certificate_orders(text)
        count[f"{step.family}.elements_examined"] += sum(orders[:-1])
        count["oracle.verify_elements_examined"] += _verifier_examined(text)
        count["certificate.bytes"] += len(text.encode())
        if step not in COMPANION_CHAINS and not self.passes:
            self.groups.append((h.order(), h, cert.levels[1].conjugators[-1]))
        problems = check_chain(step, text)
        if not report.ok:
            problems.append(f"{step.label}: self-verification failed")
        return problems

    def _verify(self, step: Verify, count: dict) -> list:
        tr = self.tr
        text = step.input_path(self.work).read_text()
        with tr.span("certificate.from_json", "certificate"):
            cert = ChainCertificate.from_json(text)
        with tr.span("group.PermutationGroup", "group"):
            h = PermutationGroup(cert.generators, cert.degree)
        if step.chain.family == "affine":
            with tr.span("group.build_agl", "group"):
                ctx = build_agl(step.chain.a, step.chain.b)
            if ctx.H.order() != h.order():
                return [f"{step.label}: subgroup order does not match the affine family"]
        with tr.span("oracle.verify_certificate", "oracle.verify"):
            report = verify_certificate(cert, h)
        count["oracle.verify_elements_examined"] += _verifier_examined(text)
        return check_verify_report(step.label, 0 if report.ok else 1, report.summary(),
                                   certificate_orders(text))

    def _oracle(self, step: Oracle, count: dict) -> list:
        tr = self.tr
        ambient_group = symmetric_group if step.ambient == "S" else alternating_group
        with tr.span(f"group.{ambient_group.__name__}", "group"):
            g = ambient_group(step.degree)
        if step.subgroup == "natural":
            with tr.span("group.point_stabilizer", "group"):
                h = g.point_stabilizer(step.degree)
        elif step.subgroup == "agl":
            with tr.span("group.build_agl", "group"):
                h = build_agl(step.p, step.d).H
            if step.ambient == "A":
                with tr.span("group.intersect", "group"):
                    h = intersect(h, g)
        else:
            with tr.span("group.read_generator_file", "group"):
                degree, gens = read_generator_file((self.work / step.gens).read_text())
            with tr.span("group.PermutationGroup", "group"):
                h = PermutationGroup(gens, degree)
            with tr.span("group.is_subgroup_of", "group"):
                if not h.is_subgroup_of(g):
                    return [f"{step.label}: generators do not lie in the ambient group"]
        with tr.span("oracle.build_coset_action", "oracle.action"):
            action = build_coset_action(g, h)
        with tr.span("oracle.mibs", "oracle.mibs"):
            value, cert = mibs(action, limits=OracleLimits(), ambient=step.ambient)
        cert.family = step.subgroup
        cert.params = ({"n": step.degree} if step.subgroup == "natural" else
                       {"p": step.p, "d": step.d} if step.subgroup == "agl" else {})
        count["oracle.action_t"] += action.degree
        count["oracle.mibs_value"] += value
        count["oracle.mibs_h_order"] += cert.levels[0].order
        if not self.passes:
            self.groups.append((h.order(), h, action.transversal[1]))
        problems = check_oracle_value(step, value, action.degree)
        if step.out:
            with tr.span("certificate.to_json", "certificate"):
                text = cert.to_json()
            step.witness_path(self.work).write_text(text)
            count["certificate.bytes"] += len(text.encode())
            problems += check_witness(step, text)
            self.witness = (cert, h)
        return problems

    # -- passes and metrics ----------------------------------------------------

    def run_pass(self) -> None:
        count = dict.fromkeys(COUNTERS, 0)
        first = len(self.tr.spans)
        pass_index = len(self.passes)
        for step in self.steps:
            runner = {Chain: self._chain, Verify: self._verify, Oracle: self._oracle}[type(step)]
            with self.tr.span(f"step:{step.label}", "harness", step=step.label,
                              pass_index=pass_index) as root:
                problems = runner(step, count)
            if pass_index == 0:
                self.lib_s[step.label] = root["end"] - root["start"]
            if self.witness is not None:  # re-verified outside every span
                cert, h = self.witness
                self.witness = None
                if not verify_certificate(cert, h).ok:
                    problems.append(f"{step.label}: witness fails verification")
            if isinstance(step, Chain) and pass_index == 0:
                for v in self.steps:
                    if isinstance(v, Verify) and v.chain == step:
                        prepare_verify_input(v, self.work, self.certs[step.label], self.seed)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems
        spans = self.tr.spans[first:]
        self.passes.append(self._pass_metrics(spans, count))

    def _pass_metrics(self, spans: list, count: dict) -> dict:
        def total(pred):
            return sum(s["end"] - s["start"] for s in spans if pred(s))

        roots = [s for s in spans if s["parent"] is None]
        pass_s = sum(s["end"] - s["start"] for s in roots)
        selfs = self.tr.self_times(spans)
        m = {
            "group.build_s": total(lambda s: s["name"] in GROUP_BUILDS),
            "affine.chain_s": total(lambda s: s["name"] == "affine.affine_chain"),
            "wreath.chain_s": total(lambda s: s["name"] == "wreath.wreath_chain"),
            "oracle.verify_s": total(lambda s: s["layer"] == "oracle.verify"),
            "oracle.action_s": total(lambda s: s["layer"] == "oracle.action"),
            "oracle.mibs_s": total(lambda s: s["layer"] == "oracle.mibs"),
            "certificate.to_json_s": total(lambda s: s["name"] == "certificate.to_json"),
            "certificate.from_json_s": total(lambda s: s["name"] == "certificate.from_json"),
            "trace.pass_s": pass_s,
            **count,
        }
        m["oracle.verify_elems_per_s"] = m["oracle.verify_elements_examined"] / m["oracle.verify_s"]
        for layer in LAYERS:
            m[f"self_s.{layer}"] = selfs.get(layer, 0.0)
            m[f"self_share.{layer}"] = selfs.get(layer, 0.0) / pass_s
        return m

    # -- microbenchmarks and CLI overhead ---------------------------------------

    def compose_us(self, n: int) -> float:
        rng = random.Random(f"{self.seed}/compose/{n}")
        p, q = (Permutation(rng.sample(range(1, n + 1), n)) for _ in range(2))
        calls = COMPOSE_CALLS[n]
        per_call = []
        with self.tr.span(f"perm.compose.n{n}", "perm", calls=5 * calls):
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    compose(p, q)
                per_call.append((time.perf_counter() - t0) / calls * 1e6)
        return statistics.median(per_call)

    def group_rates(self) -> dict:
        """Enumeration and membership rates on the largest H of the workload's own steps."""
        _, h, x = max(self.groups, key=lambda g: g[0])
        with self.tr.span("group.iter_elements", "group") as s:
            n_enum = sum(1 for _ in itertools.islice(h.iter_elements(), ENUM_SAMPLE))
        enum_s = s["end"] - s["start"]
        sample = list(itertools.islice(h.iter_elements(), CONTAINS_SAMPLE))
        with self.tr.span("group.contains", "group") as s:
            for e in sample:
                h.contains(e.conjugate(x))
        contains_s = s["end"] - s["start"]
        return {"group.enum_elements": n_enum, "group.enum_per_s": n_enum / enum_s,
                "group.contains_calls": len(sample),
                "group.contains_per_s": len(sample) / contains_s}

    def cli_overhead_s(self, env: dict) -> float:
        """Mean CLI wall time minus library time, over the steps that are short in the library."""
        gaps = []
        for step in self.steps:
            if self.lib_s[step.label] < CLI_PROBE_MAX_S:
                walls = [run_cli(step.argv(self.work), env, self.work).wall_s
                         for _ in range(CLI_PROBE_REPEATS)]
                gaps.append(statistics.median(walls) - self.lib_s[step.label])
        return statistics.fmean(gaps)

    def oracle_rss_mib(self, env: dict) -> float:
        """Largest peak RSS, from wait4, of a child that runs one oracle step's calls alone."""
        peaks = []
        for step in self.steps:
            if isinstance(step, Oracle):
                inv = run_child([sys.executable, __file__, step.label, str(self.work)],
                                env, self.work)
                if inv.rc != 0:
                    self.problems.append(f"{step.label}: oracle child failed: "
                                         f"{inv.stderr.strip()[-300:]}")
                peaks.append(inv.peak_rss_mib)
        return max(peaks)

    def span_cost_s(self) -> float:
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(2000):
            with probe.span("probe", "harness"):
                pass
        return (time.perf_counter() - t0) / 2000


def unit_of(name: str) -> str:
    if name.startswith("self_share.") or name.endswith("_frac"):
        return "ratio"
    if name.startswith("perm.compose_us."):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.startswith("self_s.") or name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return "B" if name == "certificate.bytes" else "count"


def measure(steps: list, work: Path, seed: int, seconds: float, env: dict,
            trace_path: Path) -> tuple:
    """Runs passes for about ``seconds``; returns (metrics, attempted, failed, problems)."""
    run = TracedRun(steps, work, seed)
    run_passes(run.run_pass, seconds)
    pass_spans = len(run.tr.spans)
    values = {k: statistics.median(p[k] for p in run.passes) for k in run.passes[0]}
    with run.tr.span("microbench", "harness"):
        values["perm.compose_us.n81"] = run.compose_us(81)
        values["perm.compose_us.n5040"] = run.compose_us(5040)
        values.update(run.group_rates())
    values["cli.overhead_s"] = run.cli_overhead_s(env)
    values["oracle.mibs_rss_mib"] = run.oracle_rss_mib(env)
    values["trace.spans"] = len(run.tr.spans)
    values["trace.overhead_frac"] = (run.span_cost_s() * pass_spans
                                     / sum(p["trace.pass_s"] for p in run.passes))
    run.tr.write(trace_path)
    return values, run.attempted, run.failed, run.problems


def _oracle_child(label: str, work: str) -> int:
    """Runs one oracle step in-process, as TracedRun does; the parent reads its peak RSS."""
    step = next(s for steps in WORKLOADS.values() for s in steps if s.label == label)
    problems = TracedRun([step], Path(work), 0)._oracle(step, dict.fromkeys(COUNTERS, 0))
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(_oracle_child(*sys.argv[1:]))
