"""Set-up probe: import irrbase and make the groups a workload's CLI invocations build.

Run as ``python3 bench/setup_probe.py SPECS`` with ``src`` on PYTHONPATH, where
SPECS is a JSON list of constructions, one per group an invocation builds:

    ["agl", p, d]               build_agl(p, d)
    ["wreath", m, k]            build_wreath(m, k)
    ["ambient", "S"|"A", n]     symmetric_group(n) or alternating_group(n)
    ["stabilizer", "S"|"A", n]  the same, then point_stabilizer(n)
    ["gens", path]              PermutationGroup on a generator file
    ["cert", path]              PermutationGroup on a certificate's generators

The caller times the whole process, interpreter start included.
"""

import json
import sys

import irrbase


def main() -> None:
    for kind, *args in json.loads(sys.argv[1]):
        if kind == "agl":
            irrbase.build_agl(*args)
        elif kind == "wreath":
            irrbase.build_wreath(*args)
        elif kind in ("ambient", "stabilizer"):
            ambient, n = args
            g = (irrbase.symmetric_group if ambient == "S" else irrbase.alternating_group)(n)
            if kind == "stabilizer":
                g.point_stabilizer(n)
        elif kind == "gens":
            with open(args[0]) as fh:
                degree, gens = irrbase.read_generator_file(fh.read())
            irrbase.PermutationGroup(gens, degree)
        elif kind == "cert":
            with open(args[0]) as fh:
                cert = json.load(fh)
            degree = cert["degree"]
            gens = [irrbase.parse_cycles(s, degree) for s in cert["subgroup"]["generators"]]
            irrbase.PermutationGroup(gens, degree)
        else:
            raise ValueError(f"unknown construction {kind!r}")


if __name__ == "__main__":
    main()
