"""Self-test of the benchmark's oracles and failure accounting, at tiny sizes.

    python3 perfbench/selftest.py

For every workload, two blocks of a tiny mix go through ``run.Tally`` three
times: as they are, where every output must pass its oracle; with one output
replaced by a planted wrong answer; and with one operation raising
``ResourceLimitError``.  The last two must each count exactly one failed
operation.  For ``entail`` it also confirms, by its own grid enumeration,
that each query's unit count is the rank of its first countermodel plus
one.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS, gi_holds, make_api

TINY = {
    "score": [(2, 1), (3, 1)],
    "check": [(("score", 2), 1), (("chain", 3), 1),
              (("tampered", ("chain", 3, Fraction(1, 2))), 1)],
    "entail": [(("trans1", 2, "lukasiewicz", None), 1),
               (("counter", 4, "product", Fraction(1, 2)), 1),
               (("mean", 2, "min", None), 1)],
    "canonical": [((2, 2), 1), ((3, 1), 1)],
}


def plant_score(lib, inp, out):
    """One route disagrees while the report still claims agreement."""
    report, text = out
    return dataclasses.replace(report, score_lgim=report.score_lgim + Fraction(1, 997)), text


def plant_check(lib, inp, out):
    """The opposite verdict."""
    verdict, proof = out
    flipped = lib.kernel.Verdict(True) if not verdict.accepted else \
        lib.kernel.Verdict(False, 0, "planted")
    return flipped, proof


def plant_entail(lib, inp, out):
    """No countermodel where one was planted; one at the origin where the
    query is sound."""
    if inp.model is not None:
        return None
    return lib.semantics.Evaluation({n: 0 for n in inp.names}, inp.kind)


def plant_canonical(lib, inp, out):
    """One degree off the coordinate mean."""
    ev, degrees = out
    degrees = list(degrees)
    degrees[len(degrees) // 2] += Fraction(1, 7919)
    return ev, degrees


PLANTS = {"score": plant_score, "check": plant_check,
          "entail": plant_entail, "canonical": plant_canonical}


def entail_units_hold(wl, count):
    """Enumerate each tiny query's grid with the benchmark's own evaluator, in
    the documented order: the first countermodel is the planted one, and
    ``units`` is its rank plus one, or the whole grid on a clean sweep."""
    for i in range(count):
        inp = wl.input(i)
        steps = [Fraction(j, inp.m) for j in range(inp.m + 1)]
        visited, found = 0, None
        for point in itertools.product(steps, repeat=len(inp.names)):
            visited += 1
            env = dict(zip(inp.names, point))
            if all(gi_holds(g, env, inp.tnorm) for g in inp.theory_t) \
                    and not gi_holds(inp.formula_t, env, inp.tnorm):
                found = env
                break
        if found != inp.model or visited != inp.units:
            return False
    return True


def tally(wl, api, count, fault=None, at=1):
    """Run ``count`` operations; operation ``at`` gets ``fault`` applied."""
    t = run.Tally()
    real_op = type(wl).op
    seen = [0]

    def op(api_, inp):
        j = seen[0]
        seen[0] += 1
        out = real_op(api_, inp)
        return fault(inp, out) if fault is not None and j == at else out

    wl.op = op
    try:
        for i in range(count):
            t.run(wl, api, wl.input(i))
    finally:
        del wl.op
    return t


def main():
    problems = []
    for name, block in TINY.items():
        lib, wl, _ = run.setup(WORKLOADS[name], seed=3, block=block)
        api = make_api(lib)
        count = 2 * len(wl.order)

        def raise_limit(inp, out):
            raise lib.errors.ResourceLimitError("planted limit")

        cases = {
            "clean": (None, 0, ""),
            "wrong answer": (lambda inp, out: PLANTS[name](lib, inp, out), 1,
                             "failed the oracle"),
            "raised ResourceLimitError": (raise_limit, 1, "ResourceLimitError"),
        }
        for case, (fault, expected, reason) in cases.items():
            t = tally(wl, api, count, fault)
            ok = (t.failed == expected and len(t.latencies) == count
                  and all(reason in message for message in t.errors))
            print(f"{name:9s} {case:26s} attempted {len(t.latencies)} failed {t.failed} "
                  f"(expected {expected}) {'ok' if ok else 'WRONG'}")
            for message in t.errors:
                print(f"    {message}")
            if not ok:
                problems.append(f"{name}: {case}")
        if name == "entail":
            ok = entail_units_hold(wl, count)
            print(f"{name:9s} {'units are rank + 1':26s} {'ok' if ok else 'WRONG'}")
            if not ok:
                problems.append(f"{name}: units")
    if problems:
        print("self-test failed: " + "; ".join(problems))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
