"""The four benchmark workloads: inputs, the timed operation, and its oracle.

Every workload is a closed loop with one client: operation ``i + 1`` starts
when operation ``i`` has returned and been checked.  Input ``i`` is a pure
function of ``(seed, i)``; the sizes follow a fixed mix (``BLOCK``) laid out
in smooth weighted round-robin order, so any prefix of the stream has close
to the mix's proportions and a run's cost barely depends on the seed.  The
seed chooses names, grades, expression shapes and answer values.  Inputs are
never repeated within a run, so a cache inside the library cannot turn the
benchmark into a lookup.

The operations call the library only through ``api``, a namespace of the
public functions the command-line handlers call, so that the traced run can
rebind them.  The oracles never call the path being timed: they recompute
the answer from the benchmark's own description of the input.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from types import SimpleNamespace

ONE = Fraction(1)
ZERO = Fraction(0)


def smooth_order(weights):
    """Smooth weighted round-robin: ``[(slot, weight), ...]`` to a sequence
    of ``sum(weight)`` slots in which every prefix is near-proportional."""
    total = sum(w for _, w in weights)
    current = [0] * len(weights)
    order = []
    for _ in range(total):
        for j, (_, w) in enumerate(weights):
            current[j] += w
        best = max(range(len(weights)), key=current.__getitem__)
        current[best] -= total
        order.append(weights[best][0])
    return order


def make_api(lib):
    """The library functions the operations call, rebindable by the tracer."""
    return SimpleNamespace(
        cross_check=lib.questionnaire.cross_check,
        proof_to_json_lines=lib.kernel.proof_to_json_lines,
        parse_theory=lib.syntax.parse_theory,
        parse_proof_script=lib.kernel.parse_proof_script,
        check_proof=lib.kernel.check_proof,
        find_countermodel=lib.semantics.find_countermodel,
        check_theory_correct_canonical=lib.prototypes.check_theory_correct_canonical,
        grid_worlds=lib.prototypes.grid_worlds,
        degree=lib.prototypes.degree,
    )


class Workload:
    """A stream of inputs cut from ``BLOCK``; subclasses define the rest."""

    name = ""
    unit = ""
    #: ``[(slot, weight), ...]``: the size mix of one block of operations.
    BLOCK: list = []
    #: Operations in the traced run: whole blocks, so its counts repeat.
    TRACE_OPS = 0

    def __init__(self, lib, seed, block=None):
        self.lib = lib
        self.seed = seed
        self.order = smooth_order(block if block is not None else self.BLOCK)
        self.prepare()
        self.first = [self.generate(i) for i in range(len(self.order))]

    def prepare(self):
        """Seed-wide material shared by all inputs (none by default)."""

    def rng(self, i):
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def input(self, i):
        if i < len(self.first):
            return self.first[i]
        return self.generate(i)

    def slot(self, i):
        return self.order[i % len(self.order)]

    def generate(self, i):
        raise NotImplementedError

    @staticmethod
    def op(api, inp):
        raise NotImplementedError

    @staticmethod
    def verify(inp, out) -> bool:
        raise NotImplementedError

    @staticmethod
    def proof_facts(inp, out):
        """For the traced run: ``(proof, lines checked, rejected, script)``
        of an operation that checked a proof, else None."""
        return None


# ---------------------------------------------------------------------------
# score: one answer sheet through all three scoring routes, then serialised
# ---------------------------------------------------------------------------


class Score(Workload):
    name = "score"
    unit = "items"
    # Sheet size n -> sheets per block of 40.  Build + check cost roughly
    # doubles per item (13 ms at n=4, 1.1 s at n=11 on a 2-vCPU Xeon VM),
    # so small sheets dominate the count and the largest sizes set the
    # tail.  The median falls inside the n=6 group and the 90th percentile
    # inside the n=9 one, not on the edge between two sizes.
    BLOCK = [(4, 8), (5, 6), (6, 11), (7, 5), (8, 4), (9, 3), (10, 2), (11, 1)]
    TRACE_OPS = 40

    def generate(self, i):
        q = self.lib.questionnaire
        n = self.slot(i)
        rng = self.rng(i)
        steps = rng.randint(3, 7)
        prefix = rng.choice(("q", "item", "s"))
        ids = [f"{prefix}{j + 1}" for j in range(n)]
        spec = q.QuestionnaireSpec(
            name=f"bench{n}",
            items=tuple((item, f"prompt {item}") for item in ids),
            scale_steps=steps,
            disorder=rng.choice(("delta", "d", "disorder")),
        )
        raw = {item: rng.randint(0, steps) for item in ids}
        sheet = q.sheet_from_raw(spec, f"r{i}", raw)
        expected = Fraction(sum(raw.values()), n * steps)
        return SimpleNamespace(spec=spec, sheet=sheet, expected=expected, units=n)

    @staticmethod
    def op(api, inp):
        report = api.cross_check(inp.sheet, inp.spec)
        return report, api.proof_to_json_lines(report.proof)

    @staticmethod
    def verify(inp, out):
        report, text = out
        return (
            report.agreement is True
            and report.respondent == inp.sheet.respondent
            and report.score_mean == report.score_q == report.score_lgim == inp.expected
            and text.count("\n") == len(report.proof.lines)
        )

    @staticmethod
    def proof_facts(inp, out):
        report, text = out
        return report.proof, len(report.proof.lines), False, text


# ---------------------------------------------------------------------------
# check: parse a theory and a proof script, then check the proof
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"\b(x\d\d)\b")


class Check(Workload):
    name = "check"
    unit = "lines"
    # The corpus, built once per seed: score derivations, weakening/chaining
    # proofs over random theories, and tampered copies of both, rejected at a
    # fixed fraction of their length.  Each block is one pass over it.
    BLOCK = [
        (("score", 3), 1), (("score", 4), 1), (("score", 5), 1),
        (("score", 6), 1), (("score", 7), 1), (("score", 8), 1),
        (("chain", 3), 1), (("chain", 4), 1), (("chain", 5), 1),
        (("chain", 6), 1), (("chain", 7), 1), (("chain", 8), 1),
        (("chain", 9), 1), (("chain", 10), 1),
        (("tampered", ("score", 5, Fraction(1, 2))), 1),
        (("tampered", ("score", 8, Fraction(3, 4))), 1),
        (("tampered", ("chain", 6, Fraction(1, 2))), 1),
        (("tampered", ("chain", 10, Fraction(3, 4))), 1),
    ]
    TRACE_OPS = 90

    def prepare(self):
        base = {}

        def proof(kind, size):
            if (kind, size) not in base:
                rng = random.Random(f"check-base:{self.seed}:{kind}:{size}")
                build = self._score_proof if kind == "score" else self._chain_proof
                base[(kind, size)] = build(rng, size)
            return base[(kind, size)]

        self.entries = {}
        for kind, size in self.order:
            if kind == "tampered":
                src_kind, src_size, at = size
                entry = self._tampered(proof(src_kind, src_size), at)
            else:
                entry = self._texts(proof(kind, size)) + (None,)
            self.entries[(kind, size)] = entry

    def _texts(self, proof):
        render = self.lib.syntax.render
        theory = "\n".join(render(f) for f in proof.theory) + "\n"
        return theory, self.lib.kernel.proof_to_json_lines(proof)

    def _score_proof(self, rng, n):
        steps = rng.randint(3, 7)
        answers = [Fraction(rng.randint(0, steps), steps) for _ in range(n)]
        items = [f"x{j:02d}" for j in range(1, n + 1)]
        return self.lib.kernel.build_score_derivation(
            n, answers, items=items, disorder="x00"
        )

    def _chain_proof(self, rng, length):
        """A chain A0 ->[c1] A1, ..., composed by trans1 and then weakened."""
        syn, ker = self.lib.syntax, self.lib.kernel
        names = [f"x{j:02d}" for j in range(1, 5)]
        exprs = []
        while len(exprs) < length + 1:
            e = to_basic(syn, rand_expr(rng, names, 2))
            if e not in exprs:
                exprs.append(e)
        # Grades of 15/16 or more keep every composed grade above zero, so
        # each weakening adds lines.
        grades = [Fraction(rng.randint(15, 16), 16) for _ in range(length)]
        theory = tuple(
            syn.Atom(syn.GradedImplication((exprs[j],), exprs[j + 1], grades[j]))
            for j in range(length)
        )
        b = ker.ProofBuilder(theory)
        acc, grade = b.hyp(0), grades[0]
        for j in range(1, length):
            pair = b.conjoin(acc, b.hyp(j))
            grade = max(grade + grades[j] - ONE, ZERO)
            concl = syn.Atom(syn.GradedImplication((exprs[0],), exprs[j + 1], grade))
            bridge = b.axiom(syn.outer_implies(b.lines[pair].formula, concl))
            acc = b.mp(pair, bridge)
        b.weaken(acc, grade * Fraction(rng.randint(0, 3), 4))
        for j in rng.sample(range(length), 2):
            b.weaken(b.hyp(j), grades[j] * Fraction(rng.randint(1, 3), 4))
        return b.build()

    def _tampered(self, proof, at):
        """Negate the formula of the MP line nearest ``at`` of the proof: its
        major premise no longer fits, so the kernel must reject that line
        and, every earlier line being untouched, no earlier one."""
        syn, ker = self.lib.syntax, self.lib.kernel
        mp_lines = [j for j, line in enumerate(proof.lines)
                    if isinstance(line.just, ker.MP)]
        target = min(mp_lines, key=lambda j: abs(j - at * len(proof.lines)))
        theory, script = self._texts(proof)
        rows = script.splitlines()
        row = json.loads(rows[target])
        row["formula"] = syn.render(syn.ONot(proof.lines[target].formula))
        rows[target] = json.dumps(row, sort_keys=True)
        return theory, "\n".join(rows) + "\n", target

    def generate(self, i):
        theory, script, reject_at = self.entries[self.slot(i)]
        # Rename every variable per pass over the corpus, so no text repeats.
        # Base names share one width, so the renaming keeps their order.
        suffix = f"c{i // len(self.order)}"
        rename = lambda text: _NAME_RE.sub(rf"\1{suffix}", text)
        return SimpleNamespace(
            theory=rename(theory),
            script=rename(script),
            reject_at=reject_at,
            units=script.count("\n"),
        )

    @staticmethod
    def op(api, inp):
        theory = api.parse_theory(inp.theory)
        proof = api.parse_proof_script(inp.script, theory)
        return api.check_proof(theory, proof), proof

    @staticmethod
    def verify(inp, out):
        verdict, proof = out
        if len(proof.lines) != inp.units:
            return False
        if inp.reject_at is None:
            return verdict.accepted is True
        return verdict.accepted is False and verdict.line == inp.reject_at

    @staticmethod
    def proof_facts(inp, out):
        verdict, proof = out
        checked = len(proof.lines) if verdict.accepted else verdict.line + 1
        return proof, checked, not verdict.accepted, inp.script


# ---------------------------------------------------------------------------
# entail: one grid countermodel search over three variables
# ---------------------------------------------------------------------------
#
# Expressions are the benchmark's own tuples: ("var", name), ("top",),
# ("bot",), ("neg", e), ("and"|"or"|"strong", e1, e2); an implication atom is
# ("gi", antecedents, consequent, grade).  ``to_basic``/``to_atom`` build the
# library's syntax from them; ``expr_value``/``gi_holds`` are the oracle.


def rand_expr(rng, names, size, ops=("and", "or", "strong", "neg")):
    """A random expression with exactly ``size`` connectives."""
    if size == 0:
        return ("var", rng.choice(names))
    op = rng.choice(ops)
    if op == "neg":
        return ("neg", rand_expr(rng, names, size - 1, ops))
    left = rng.randint(0, size - 1)
    return (op, rand_expr(rng, names, left, ops),
            rand_expr(rng, names, size - 1 - left, ops))


def expr_vars(e):
    if e[0] == "var":
        return {e[1]}
    return set().union(*(expr_vars(x) for x in e[1:]))


def to_basic(syn, e):
    tag = e[0]
    if tag == "var":
        return syn.Var(e[1])
    if tag == "top":
        return syn.Top()
    if tag == "bot":
        return syn.Bottom()
    if tag == "neg":
        return syn.Neg(to_basic(syn, e[1]))
    cls = {"and": syn.And, "or": syn.Or, "strong": syn.Strong}[tag]
    return cls(to_basic(syn, e[1]), to_basic(syn, e[2]))


def to_atom(syn, g):
    _, ants, cons, grade = g
    return syn.Atom(syn.GradedImplication(
        tuple(to_basic(syn, a) for a in ants), to_basic(syn, cons), grade))


def expr_value(e, env, tnorm):
    tag = e[0]
    if tag == "var":
        return env[e[1]]
    if tag == "top":
        return ONE
    if tag == "bot":
        return ZERO
    if tag == "neg":
        return ONE - expr_value(e[1], env, tnorm)
    a = expr_value(e[1], env, tnorm)
    b = expr_value(e[2], env, tnorm)
    if tag == "and" or (tag == "strong" and tnorm == "min"):
        return min(a, b)
    if tag == "or":
        return max(a, b)
    if tnorm == "product":
        return a * b
    return max(a + b - ONE, ZERO)


def gi_holds(g, env, tnorm):
    """The mean test: antecedent mean at most consequent plus 1 - grade."""
    _, ants, cons, grade = g
    avg = Fraction(sum(expr_value(a, env, tnorm) for a in ants), len(ants))
    return avg <= expr_value(cons, env, tnorm) + ONE - grade


def luk(c, d):
    return max(c + d - ONE, ZERO)


NAME_SETS = (("a", "b", "c"), ("p", "q", "r"), ("u", "v", "w"), ("x", "y", "z"))


class Entail(Workload):
    name = "entail"
    unit = "points"
    # Slots: (family, grid denominator m, t-norm, countermodel position).
    # Sound queries sweep all (m+1)**3 points; a planted countermodel sits
    # at the given fraction of the grid.  The median falls inside the
    # (and1, 10) group and the 90th percentile inside the (trans1, 14) one.
    BLOCK = [
        (("trans1", 8, "lukasiewicz", None), 1),
        (("and1", 10, "lukasiewicz", None), 3),
        (("or1", 8, "product", None), 1),
        (("mean", 10, "lukasiewicz", None), 1),
        (("trans1", 12, "min", None), 1),
        (("and1", 8, "product", None), 1),
        (("or1", 10, "lukasiewicz", None), 1),
        (("mean", 8, "min", None), 1),
        (("mean", 12, "lukasiewicz", None), 1),
        (("trans1", 14, "lukasiewicz", None), 4),
        (("counter", 16, "lukasiewicz", Fraction(1, 4)), 2),
        (("counter", 12, "lukasiewicz", Fraction(3, 4)), 2),
        (("counter", 20, "lukasiewicz", Fraction(1, 2)), 1),
        (("counter", 24, "product", Fraction(1, 4)), 1),
        (("counter", 30, "min", Fraction(1, 8)), 1),
    ]
    TRACE_OPS = 20

    def generate(self, i):
        family, m, tnorm, at = self.slot(i)
        rng = self.rng(i)
        names = rng.choice(NAME_SETS)
        if family == "counter":
            theory, formula, model = self._planted(rng, names, m, at)
        else:
            theory, formula = self._sound(rng, names, family)
            model = None
        syn = self.lib.syntax
        if model is None:
            units = (m + 1) ** 3
        else:
            units = model[names[0]] * m * (m + 1) ** 2 + 1
        return SimpleNamespace(
            names=names, theory_t=theory, formula_t=formula, tnorm=tnorm, m=m, model=model,
            theory=tuple(to_atom(syn, g) for g in theory),
            formula=to_atom(syn, formula),
            kind=self.lib.grades.TNormKind(tnorm),
            units=int(units),
        )

    @staticmethod
    def _sound(rng, names, family):
        """A query valid by one schema: a clean sweep of the whole grid."""
        g1 = Fraction(rng.randint(5, 8), 8)
        g2 = Fraction(rng.randint(5, 8), 8)
        while True:
            a, b, c, d = (rand_expr(rng, names, 1) for _ in range(4))
            if family == "trans1":
                theory = [("gi", (a,), b, g1), ("gi", (b,), c, g2)]
                formula = ("gi", (a,), c, luk(g1, g2))
            elif family == "and1":
                theory = [("gi", (a,), b, g1), ("gi", (a,), c, g1)]
                formula = ("gi", (a,), ("and", b, c), g1)
            elif family == "or1":
                theory = [("gi", (a,), c, g1), ("gi", (b,), c, g1)]
                formula = ("gi", (("or", a, b),), c, g1)
            else:
                # mean_trans2: a, d ->[c1] b and b ->[c2] c give a, d ->[luk] c.
                theory = [("gi", (a, d), b, g1), ("gi", (b,), c, g2)]
                formula = ("gi", (a, d), c, luk(g1, g2))
            used = (a, b, c, d) if family == "mean" else (a, b, c)
            if len(set(used)) == len(used) and set().union(*map(expr_vars, used)) == set(names):
                return theory, formula

    @staticmethod
    def _planted(rng, names, m, at):
        """First countermodel at (i0/m, 0, 0) with i0 = round(at * m).

        The theory pins the first variable x to at least ``a``, with
        (i0-1)/m < a <= i0/m, and adds a member valid everywhere; the
        formula x ->[g] F(y, z) with F zero at the origin and 1 - g < a fails
        at (i0/m, 0, 0).  Every earlier point has x < a, so this is the
        first countermodel in the documented enumeration order.
        """
        x, y, z = names
        i0 = max(1, round(at * m))
        a = Fraction(i0, m) - Fraction(rng.randint(0, 3), 4 * m)
        g = ONE - a + a * Fraction(rng.randint(1, 4), 4)
        yz = lambda size: rand_expr(rng, (y, z), size, ("and", "or", "strong"))
        while True:
            f = yz(2)
            if expr_vars(f) == {y, z}:
                break
        valid = rng.choice((
            ("gi", (("strong", ("var", y), ("var", z)),), ("var", y), ONE),
            ("gi", (("and", ("var", y), ("var", z)),), ("or", ("var", y), ("var", z)), ONE),
            ("gi", (("strong", ("var", z), ("var", y)),), ("and", ("var", y), ("var", z)), ONE),
        ))
        theory = [("gi", (("top",),), ("var", x), a), valid]
        return theory, ("gi", (("var", x),), f, g), {x: Fraction(i0, m), y: ZERO, z: ZERO}

    @staticmethod
    def op(api, inp):
        return api.find_countermodel(inp.theory, inp.formula, inp.m, inp.kind)

    @staticmethod
    def verify(inp, out):
        if inp.model is None:
            return out is None
        if out is None or dict(out.values) != inp.model:
            return False
        return (all(gi_holds(g, inp.model, inp.tnorm) for g in inp.theory_t)
                and not gi_holds(inp.formula_t, inp.model, inp.tnorm))


# ---------------------------------------------------------------------------
# canonical: recognise the two-biconditional theory, then the degree field
# ---------------------------------------------------------------------------


class Canonical(Workload):
    name = "canonical"
    unit = "worlds"
    # Slots: (n items, grid denominator k), i.e. (k+1)**n worlds each.  The
    # recogniser sweeps the grid once per theory member before the degree
    # sweep.  The median falls inside the (3, 4) group and the 90th
    # percentile inside the (4, 4) one.
    BLOCK = [
        ((2, 4), 2), ((2, 8), 2), ((2, 12), 1), ((3, 3), 2), ((3, 4), 2),
        ((3, 5), 1), ((4, 2), 2), ((4, 3), 2), ((5, 2), 1), ((6, 1), 1),
        ((4, 4), 4),
    ]
    TRACE_OPS = 40

    def generate(self, i):
        syn = self.lib.syntax
        n, k = self.slot(i)
        rng = self.rng(i)
        prefix = rng.choice(("p", "item", "x"))
        items = [f"{prefix}{j + 1}" for j in range(n)]
        disorder = rng.choice(("d", "delta", "dis"))

        def biconditional(level):
            order = rng.sample(items, n)
            conj = syn.Atom(syn.GradedVariable(order[0], level))
            for name in order[1:]:
                conj = syn.OAnd(conj, syn.Atom(syn.GradedVariable(name, level)))
            solo = syn.Atom(syn.GradedVariable(disorder, level))
            sides = [syn.outer_implies(solo, conj), syn.outer_implies(conj, solo)]
            rng.shuffle(sides)
            return syn.OAnd(*sides)

        theory = [biconditional(ONE), biconditional(ZERO)]
        rng.shuffle(theory)
        return SimpleNamespace(theory=tuple(theory), n=n, k=k, items=items,
                               disorder=disorder, units=(k + 1) ** n)

    @staticmethod
    def op(api, inp):
        ev = api.check_theory_correct_canonical(inp.theory, inp.n, inp.k)
        degrees = [api.degree(ev, inp.disorder, w) for w in api.grid_worlds(inp.n, inp.k)]
        return ev, degrees

    @staticmethod
    def verify(inp, out):
        ev, degrees = out
        if ev is None or set(ev.basic) != set(inp.items) or len(degrees) != inp.units:
            return False
        scale = inp.n * inp.k
        worlds = itertools.product(range(inp.k + 1), repeat=inp.n)
        return all(got == Fraction(sum(w), scale) for got, w in zip(degrees, worlds))


WORKLOADS = {w.name: w for w in (Score, Check, Entail, Canonical)}
