"""Closed-loop benchmark of the gradedlogic library.

    python3 perfbench/run.py --workload {score,check,entail,canonical} \
        --seed N --seconds S --trace {0,1}

One process, one client thread, one operation at a time (a closed loop).
The library is imported from ``src/`` beside this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.
Inputs come from ``--seed`` (see ``workloads.py``), every output is checked
by an oracle that does not share the timed path, and the last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the loop runs whole blocks of the workload's mix until
``--seconds`` have passed.  Before every operation it also times
``reference()``, a fixed piece of pure-Python work (exact fractions, tuples,
a dict, a sort), and divides the operation's latency by the median of the two
reference times before it and the two after it.  On a shared virtual
machine the CPU speed can change by 1.5x or more within seconds as other
tenants load the host (seen on a 2-vCPU VM); the reference slows down with
the library, so latencies in reference units ("ref") stay steady where
seconds do not.  The end-to-end metrics are:

* ``ops_per_kref``   operations with a verified output per 1000 ref of timed
                     time (the sum of normalised operation latencies);
* ``units_per_kref`` the workload's unit of work (items, lines, points,
                     worlds) per 1000 ref of timed time;
* ``op_ref_p50``, ``op_ref_p90``  quantiles of the normalised latency over
                     every operation; the sample count is printed above the
                     JSON line;
* ``setup_s``        median over eleven set-ups of importing the package
                     afresh and generating the inputs of the first block,
                     each timed in ref units like the operations (against
                     the reference timed just before and after it) and
                     given in seconds at a fixed ``REFERENCE_S`` per ref;
* ``peak_rss_mb``    peak resident memory of the process;
* ``rss_growth_mb``  that peak less the peak just after the first import,
                     before any input exists: the memory of the inputs,
                     the library's caches and the run, without the
                     interpreter and its imports (about 21 MB), in which a
                     cache of a few MB would not show.

The same figures in seconds (``ops_per_s``, ``units_per_s``,
``op_ms_p50``, ``op_ms_p90``, ``setup_s``), the median reference time and
the peak just after the first import go to the result file.

With ``--trace 1`` the run covers a fixed number of operations
(``TRACE_OPS``, whole blocks of the mix) twice, once untraced and once with
the layer boundaries wrapped (``tracing.py``).  It reports the per-layer
metrics, in seconds, and ``trace.overhead_ratio``, the traced pass's time
over the untraced pass's, minus one.  Its counts repeat exactly for a given seed.

A copy of the result with the sample counts, set-up times and machine
facts, and in traced runs the spans, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import typing
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
from workloads import WORKLOADS, make_api

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
#: Seconds per ref in ``setup_s``: a round figure near what ``reference()``
#: takes (run medians of 3.6-6.3 ms) on the 2-vCPU VM the committed
#: baseline was measured on.
REFERENCE_S = 0.005
MODULES = ("errors", "grades", "syntax", "semantics", "kernel", "prototypes", "questionnaire")


class SetupError(Exception):
    """The library cannot be loaded from this checkout."""


def import_library():
    """Import ``gradedlogic`` afresh from ``src/`` and return its modules."""
    if not (SRC / "gradedlogic" / "__init__.py").is_file():
        raise SetupError(f"no gradedlogic package under {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "gradedlogic"]:
        del sys.modules[name]
    # typing's caches keep the previous import's classes alive (through
    # ``Union[...]`` aliases); a fresh process starts with them empty.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("gradedlogic")
    if Path(package.__file__).resolve().parent != SRC / "gradedlogic":
        raise SetupError(f"gradedlogic was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"gradedlogic.{name}") for name in MODULES}
    )


def setup(workload, seed, block=None):
    """Set up ``SETUP_REPEATS`` times and keep the last.  Returns the library,
    the workload and the set-up facts: each set-up's time in seconds and in
    ref units (over the median of three reference timings just before it and
    three just after it), and the peak resident memory right after the first
    import, before any input exists."""
    facts = SimpleNamespace(times=[], refs=[], rss_import_mb=None)
    for _ in range(SETUP_REPEATS):
        lib = wl = None  # each set-up starts without the last one's objects
        gc.collect()
        around = [time_reference() for _ in range(3)]
        start = perf_counter()
        lib = import_library()
        if facts.rss_import_mb is None:
            facts.rss_import_mb = peak_rss_mb()
        wl = workload(lib, seed, block)
        elapsed = perf_counter() - start
        around += [time_reference() for _ in range(3)]
        facts.times.append(elapsed)
        facts.refs.append(elapsed / statistics.median(around))
    return lib, wl, facts


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tally:
    def __init__(self):
        self.latencies: list = []
        self.units = 0
        self.failed = 0
        self.errors: list = []

    def run(self, wl, api, inp):
        """Time one operation on ``inp``; returns its output, or None."""
        start = perf_counter()
        try:
            out = wl.op(api, inp)
        except Exception as exc:  # any raise, ResourceLimitError included, fails the op
            self.latencies.append(perf_counter() - start)
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        self.latencies.append(perf_counter() - start)
        try:
            ok = wl.verify(inp, out)
        except Exception as exc:  # a malformed output fails its oracle
            ok = False
            self._fail(f"oracle raised {type(exc).__name__}: {exc}")
        else:
            if not ok:
                self._fail("output failed the oracle")
        if ok:
            self.units += inp.units
        return out

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {len(self.latencies) - 1}: {message}")


#: The table ``reference()`` walks, so that its working set is spread over
#: memory like the library's, not held in a few hot objects.
REFERENCE_TABLE = [Fraction(i % 97, i % 89 + 1) for i in range(4000)]


def reference():
    """Fixed pure-Python work timed next to every operation: exact-fraction
    arithmetic over a table, tuple keys and dict updates, and a keyed sort of
    nested tuples, like the library's own mix.  On a 2-vCPU VM it tracked
    the library's speed changes better than the same work on a few hot
    objects (interquartile spread of normalised block times 0.025-0.065
    against 0.041-0.086 over the four workloads)."""
    acc = Fraction(0)
    seen = {}
    for i in range(0, 4000, 13):
        f = REFERENCE_TABLE[i * 7919 % 4000]
        acc += f * f - f
        key = (i % 31, f)
        seen[key] = seen.get(key, 0) + 1
    rows = [(i, (i % 7, str(i))) for i in range(1500)]
    rows.sort(key=lambda row: row[1])
    return acc, len(seen), len(rows)


def time_reference():
    start = perf_counter()
    reference()
    return perf_counter() - start


def closed_loop(wl, api, seconds):
    """Whole blocks of the mix until ``seconds`` have passed, so every run
    measures the mix in its exact proportions.  Returns the tally and, per
    operation, the reference time it is normalised by: the median of the
    two reference timings before it and the two after it."""
    tally = Tally()
    samples = []
    block = len(wl.order)
    deadline = perf_counter() + seconds

    def sample():
        samples.append(time_reference())

    i = 0
    while True:
        sample()
        tally.run(wl, api, wl.input(i))
        i += 1
        if i % block == 0 and perf_counter() >= deadline:
            break
    sample()
    sample()
    refs = [statistics.median(samples[max(j - 1, 0):j + 3]) for j in range(i)]
    return tally, refs


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(tally, refs, setup_facts):
    """The end-to-end metrics, and the same figures in seconds."""
    lat = tally.latencies
    norm = [t / r for t, r in zip(lat, refs)]
    ok = len(lat) - tally.failed
    values = {
        "ops_per_kref": (1000 * ok / sum(norm), "1/kref"),
        "units_per_kref": (1000 * tally.units / sum(norm), "1/kref"),
        "op_ref_p50": (statistics.median(norm), "ref"),
        "op_ref_p90": (p90(norm), "ref"),
        "setup_s": (statistics.median(setup_facts.refs) * REFERENCE_S, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "rss_growth_mb": (peak_rss_mb() - setup_facts.rss_import_mb, "MB"),
    }
    seconds = {
        "ops_per_s": ok / sum(lat),
        "units_per_s": tally.units / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": p90(lat) * 1e3,
        "setup_s": statistics.median(setup_facts.times),
        "reference_ms_median": statistics.median(refs) * 1e3,
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, seconds


def traced_run(lib, wl, stem):
    """Each of the first ``TRACE_OPS`` operations twice, untraced and traced,
    alternating which goes first, so load changes on the machine fall on
    both sides of ``trace.overhead_ratio`` alike."""
    api = make_api(lib)
    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    outputs = []
    gc.collect()
    for i in range(wl.TRACE_OPS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            inp = wl.generate(i)
            if side == 0:
                plain.run(wl, api, inp)
                continue
            tracer.op_id = i
            with tracer.patched(tracing.targets(lib, api)):
                outputs.append((inp, traced.run(wl, api, inp)))
    tracer.write(stem)

    facts = {"taut_atoms_max": 0, "check_lines": 0, "rejected": 0,
             "hash_s": 0.0, "hash_lines": 0, "points": 0,
             "overhead_ratio": sum(traced.latencies) / sum(plain.latencies) - 1}
    for inp, out in outputs:
        if out is None:
            continue
        if wl.unit == "points":
            facts["points"] += inp.units
        found = wl.proof_facts(inp, out)
        if found is None:
            continue
        proof, checked, rejected, script = found
        facts["check_lines"] += checked
        facts["rejected"] += rejected
        for line in proof.lines:
            if isinstance(line.just, lib.kernel.Taut):
                atoms = tracing.distinct_atoms(lib.syntax, line.formula, set())
                facts["taut_atoms_max"] = max(facts["taut_atoms_max"], len(atoms))
        # First hash of each freshly parsed proof-line formula.
        formulas = [line.formula for line in api.parse_proof_script(script, proof.theory).lines]
        start = perf_counter()
        for f in formulas:
            hash(f)
        facts["hash_s"] += perf_counter() - start
        facts["hash_lines"] += len(formulas)

    tally = Tally()
    tally.latencies = plain.latencies + traced.latencies
    tally.failed = plain.failed + traced.failed
    tally.errors = plain.errors + traced.errors
    return tally, tracing.layer_metrics(tracer, facts)


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        lib, wl, setup_facts = setup(workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    gc.collect()
    seconds = None
    if args.trace:
        tally, metrics = traced_run(lib, wl, stem)
    else:
        tally, refs = closed_loop(wl, make_api(lib), args.seconds)
        metrics, seconds = end_to_end(tally, refs, setup_facts)

    attempted = len(tally.latencies)
    tail = p90(tally.latencies)
    result = {
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        loop="closed loop, one client, one process",
        samples=attempted,
        beyond_p90=sum(x > tail for x in tally.latencies),
        setup_times_s=setup_facts.times,
        setup_times_ref=setup_facts.refs,
        rss_import_mb=setup_facts.rss_import_mb,
        in_seconds=seconds,
        units=wl.unit,
        mix=[[repr(slot), weight] for slot, weight in workload.BLOCK],
        errors=tally.errors,
        machine=machine(),
    )
    with open(f"{stem}.result.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    for message in tally.errors:
        print(f"failure: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {attempted} operations "
        f"({tally.failed} failed); latency quantiles over {attempted} samples, "
        f"{detail['beyond_p90']} beyond p90; details in {stem}.result.json"
    )
    if seconds is not None:
        print("in seconds: " + ", ".join(f"{k} {v:.4g}" for k, v in seconds.items()))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
