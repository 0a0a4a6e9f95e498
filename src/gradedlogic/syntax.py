"""Two-level abstract syntax, concrete grammar, and canonical rendering.

Inner level: basic expressions built from variables, ``top``, ``bot``,
weak conjunction ``&`` (pointwise min), weak disjunction ``|`` (pointwise
max), strong conjunction ``*`` (session t-norm), and negation ``~``
(degree flip).

Outer level: formulas whose atoms are either graded implications

    a1, a2 ->[2/3] b

(antecedent list, bracketed grade, consequent) or graded variables

    (x, 2/3)

combined classically with ``/\\``, ``\\/``, ``!`` and ``=>``; the arrow is
sugar for negation-plus-disjunction and disappears at parse time.  The two
atom kinds never mix inside one formula.

The grammar is deliberately precedence-free: one unparenthesised binary
operator is allowed per level, chains must be parenthesised.  The parser
never backs up: a term opening with ``(`` is a graded variable, an
implication or a bracketed formula, decided once from the tokens (see
``_Parser``).  ``render`` writes a canonical fully parenthesised form
through one table keyed by node class, once per node; parsing it gives an
equal tree.  A grade is one token, read through ``grades.GRADE_LITERAL``
and made an exact rational by ``grades.as_grade``, the one rule for a
degree written as text; antecedent lists are kept as canonically sorted
multisets (``multiset``).  An outer node records its atom kind when it is
built, and a copy or a pickle is rebuilt through the constructor.  The grid
search, the kernel and the canonical theory recogniser flatten conjunctions
through one ``conjuncts``; ``atoms`` yields the atoms left to right.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Union

from .grades import GRADE_LITERAL, Grade, as_grade

class _Syntax:
    """Base of every syntax node: ``str`` is the canonical text.  A node
    keeps its structural hash and its text, once computed, in the ``_hash``
    and ``_text`` slots; pickles and copies are constructor calls on the
    fields, so a node loaded in another process hashes under its seed."""

    __slots__ = ("_hash", "_text")

    def __str__(self) -> str:
        return render(self)


def _node(cls):
    """``cls`` as a frozen, slotted dataclass whose structural hash is cached
    and which pickles and copies as its constructor call."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(tuple(map(self.__getattribute__, names)))
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    cls.__reduce__ = lambda self: (cls, tuple(map(self.__getattribute__, names)))
    return cls


# ---------------------------------------------------------------------------
# Basic expressions
# ---------------------------------------------------------------------------


class BasicExpr(_Syntax):
    """Base class for the inner, degree-valued expression level."""

    __slots__ = ()


@_node
class Var(BasicExpr):
    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name) or self.name in ("top", "bot"):
            raise ValueError(f"invalid variable name {self.name!r}")


@_node
class Bottom(BasicExpr):
    pass


@_node
class Top(BasicExpr):
    pass


@_node
class And(BasicExpr):
    left: BasicExpr
    right: BasicExpr


@_node
class Or(BasicExpr):
    left: BasicExpr
    right: BasicExpr


@_node
class Strong(BasicExpr):
    """Strong conjunction, interpreted by the session t-norm."""

    left: BasicExpr
    right: BasicExpr


@_node
class Neg(BasicExpr):
    expr: BasicExpr


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@_node
class GradedImplication(_Syntax):
    """A crisp claim: the antecedent mean exceeds the consequent by at most 1 - grade.

    Antecedents form a multiset; the constructor sorts them into a canonical
    order so that structural equality is multiset equality.  A one-element
    antecedent list is the plain (non-mean) implication.
    """

    antecedents: tuple[BasicExpr, ...]
    consequent: BasicExpr
    grade: Grade

    def __post_init__(self):
        ants = tuple(self.antecedents)
        if not ants:
            raise ValueError("graded implication needs at least one antecedent")
        object.__setattr__(self, "antecedents", multiset(ants))
        object.__setattr__(self, "grade", as_grade(self.grade))


def multiset(exprs: Iterable[BasicExpr]) -> tuple:
    """``exprs`` in the canonical order of an implication's antecedents."""
    exprs = tuple(exprs)
    return tuple(sorted(exprs, key=render)) if len(exprs) > 1 else exprs


def gi(antecedents: Union[BasicExpr, Iterable[BasicExpr]], consequent: BasicExpr,
       grade) -> GradedImplication:
    """Convenience constructor accepting a single antecedent or an iterable."""
    if isinstance(antecedents, BasicExpr):
        antecedents = (antecedents,)
    return GradedImplication(tuple(antecedents), consequent, grade)


@_node
class GradedVariable(_Syntax):
    """An atom asserting that a variable takes a degree exactly."""

    var: str
    grade: Grade

    def __post_init__(self):
        Var(self.var)  # the name rules of a variable
        object.__setattr__(self, "grade", as_grade(self.grade))


# ---------------------------------------------------------------------------
# Outer formulas
# ---------------------------------------------------------------------------


class OuterFormula(_Syntax):
    """Base class for the outer, two-valued formula level; ``_kind``, set when
    a node is built, says whether its atoms are graded implications."""

    __slots__ = ("_kind",)


@_node
class Atom(OuterFormula):
    content: Union[GradedImplication, GradedVariable]

    def __post_init__(self):
        if not isinstance(self.content, (GradedImplication, GradedVariable)):
            raise TypeError(f"not an atom content: {self.content!r}")
        object.__setattr__(self, "_kind", isinstance(self.content, GradedImplication))


@_node
class ONot(OuterFormula):
    operand: OuterFormula

    def __post_init__(self):
        object.__setattr__(self, "_kind", _kind_of(self.operand))


@_node
class OAnd(OuterFormula):
    left: OuterFormula
    right: OuterFormula

    def __post_init__(self):
        _check_homogeneous(self)


@_node
class OOr(OuterFormula):
    left: OuterFormula
    right: OuterFormula

    def __post_init__(self):
        _check_homogeneous(self)


def _kind_of(f: OuterFormula) -> bool:
    if not isinstance(f, OuterFormula):
        raise TypeError(f"not an outer formula: {f!r}")
    return f._kind


def _check_homogeneous(f: OuterFormula) -> None:
    kind = _kind_of(f.left)
    if kind != _kind_of(f.right):
        raise ValueError("mixed atom kinds within one formula")
    object.__setattr__(f, "_kind", kind)


def outer_implies(phi: OuterFormula, psi: OuterFormula) -> OOr:
    """The outer arrow: material implication, stored desugared."""
    return OOr(ONot(phi), psi)


def implication_parts(f: OuterFormula):
    """(phi, psi) when ``f`` is ``outer_implies(phi, psi)``, else None."""
    if isinstance(f, OOr) and isinstance(f.left, ONot):
        return f.left.operand, f.right
    return None


def atom_content(f: OuterFormula, kind: type):
    """The content of ``f`` when ``f`` is an atom holding a ``kind``, else None."""
    return f.content if isinstance(f, Atom) and isinstance(f.content, kind) else None


def conjuncts(f: OuterFormula) -> list:
    """The conjuncts of ``f`` left to right, under any bracketing of ``/\\``;
    ``[f]`` when ``f`` is not a conjunction."""
    out, pending = [], [f]
    while pending:
        g = pending.pop()
        if isinstance(g, OAnd):
            pending += (g.right, g.left)
        else:
            out.append(g)
    return out


def atoms(f: OuterFormula) -> Iterator:
    """The contents of the atoms of ``f``, left to right."""
    pending = [f]
    while pending:
        g = pending.pop()
        if isinstance(g, Atom):
            yield g.content
        elif isinstance(g, ONot):
            pending.append(g.operand)
        elif isinstance(g, (OAnd, OOr)):
            pending += (g.right, g.left)
        else:
            raise TypeError(f"not an outer formula: {g!r}")


def vars_of_basic(e: BasicExpr) -> set:
    names, pending = set(), [e]
    while pending:
        e = pending.pop()
        if isinstance(e, Var):
            names.add(e.name)
        elif isinstance(e, (Neg, And, Or, Strong)):
            pending += (e.expr,) if isinstance(e, Neg) else (e.left, e.right)
        elif not isinstance(e, (Top, Bottom)):
            raise TypeError(f"not a basic expression: {e!r}")
    return names


def vars_of_formula(f: OuterFormula) -> set:
    names: set = set()
    for content in atoms(f):
        if isinstance(content, GradedVariable):
            names.add(content.var)
        else:
            for e in (*content.antecedents, content.consequent):
                names |= vars_of_basic(e)
    return names


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(x) -> str:
    """Canonical concrete text; ``parse_*`` of the result reproduces ``x``.
    The text is kept on the node, so each node is rendered once."""
    rule = _RENDER.get(type(x))
    if rule is None:
        raise TypeError(f"cannot render {x!r}")
    text = getattr(x, "_text", None)
    if text is None:
        text = rule(x)
        object.__setattr__(x, "_text", text)
    return text


# Exact node class -> its rendering.  Every binary node is bracketed, and a
# negated atom too, so the text parses back without precedence rules.
_RENDER = {
    Var: lambda e: e.name,
    Top: lambda e: "top",
    Bottom: lambda e: "bot",
    Neg: lambda e: "~" + render(e.expr),
    And: lambda e: f"({render(e.left)} & {render(e.right)})",
    Or: lambda e: f"({render(e.left)} | {render(e.right)})",
    Strong: lambda e: f"({render(e.left)} * {render(e.right)})",
    GradedImplication: lambda g: (f"{', '.join(map(render, g.antecedents))}"
                                  f" ->[{g.grade}] {render(g.consequent)}"),
    GradedVariable: lambda v: f"({v.var}, {v.grade})",
    Atom: lambda f: render(f.content),
    ONot: lambda f: (f"!({render(f.operand)})" if isinstance(f.operand, Atom)
                     else "!" + render(f.operand)),
    OAnd: lambda f: f"({render(f.left)} /\\ {render(f.right)})",
    OOr: lambda f: f"({render(f.left)} \\/ {render(f.right)})",
}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# One match per token; the pattern skips the whitespace before it.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>/\\|\\/|=>|->|[()\[\],&|*~!/])"
    rf"|(?P<NUM>{GRADE_LITERAL})"
    rf"|(?P<IDENT>{_IDENT_RE.pattern})"
    r"|(?P<EOF>\Z)|(?P<bad>\S))"
)

_Token = namedtuple("_Token", "kind text pos")

# The tokens that can start a basic expression, and all it can hold.
_BASIC_START = frozenset(("IDENT", "top", "bot", "~", "("))
_BASIC_KINDS = _BASIC_START | {"&", "|", "*", ")"}


class ParseError(ValueError):
    """Syntax or grade error in concrete input, with a character offset."""

    def __init__(self, message: str, position: int, line: Union[int, None] = None):
        self.message = message
        self.position = position
        self.line = line
        where = f"line {line}, offset {position}" if line is not None else f"offset {position}"
        super().__init__(f"syntax error at {where}: {message}")


def _tokenize(text: str) -> tuple:
    """The tokens of ``text``; the indices of the ``(`` whose bracket group
    holds only basic-expression tokens, counting a group still open at the
    end of input; and a map from each closed ``(`` to the index of its ``)``."""
    tokens, basic, close, opened, foreign = [], set(), {}, [], 0
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        kind = m.lastgroup
        word, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {word!r}", pos)
        if kind == "op" or word in ("top", "bot"):
            kind = word
        tokens.append(_Token(kind, word, pos))
        if kind == "(":
            opened.append((i, foreign))
        elif kind == ")" and opened:
            start, before = opened.pop()
            close[start] = i
            if foreign == before:
                basic.add(start)
        elif kind == "EOF":
            return tokens, basic | {start for start, before in opened if before == foreign}, close
        elif kind not in _BASIC_KINDS:
            foreign += 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


MAX_NESTING = 200
"""The deepest nesting of brackets, ``~`` and ``!`` that parsing accepts.

Parsing, every evaluator, and a node's first hash and first rendering
recurse once or a few times per level; this cap keeps all of them under
Python's default recursion limit of 1000 frames.  A node keeps its hash and
text, so later calls recurse only into children not yet hashed or rendered.
"""


class _Parser:
    """Recursive descent that never backs up.

    A term opening with ``(`` is decided once, from the tokens: ``( name ,``
    followed by a token that cannot start a basic expression is a graded
    variable; a ``(`` whose group holds only basic-expression tokens starts
    an implication; anything else is a bracketed formula.  No other reading
    could succeed: an implication opening with ``(`` opens with such a
    group, every formula holds a token no such group holds, and after
    ``( name ,`` a formula would need an antecedent.  Each rule raises
    ParseError at the first token it cannot accept.
    """

    def __init__(self, text: str, memo: dict):  # memo: see parse_formula
        self.text, self.memo = text, memo
        self.tokens, self.basic_groups, self.close = _tokenize(text)
        self.pos = self.depth = self.peak = 0  # peak: deepest level reached

    # -- machinery ----------------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.pos)
        return self._advance()

    def _reach(self, level: int) -> bool:
        """Note that parsing reached nesting ``level``; False past MAX_NESTING."""
        if level > self.peak:
            if level > MAX_NESTING:
                return False
            self.peak = level
        return True

    def _nested(self, inside: Callable):
        """``inside()`` one nesting level deeper, past the opening ``~``, ``!``
        or ``(``, and then the ``)`` that closes a ``(``."""
        tok = self._advance()
        self.depth += 1
        if not self._reach(self.depth):
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)
        node = inside()
        if tok.kind == "(":
            self._expect(")", "')'")
        self.depth -= 1
        return node

    # -- basic expressions ---------------------------------------------------

    def basic(self) -> BasicExpr:
        left = self.unary()
        node = _BASIC_OPS.get(self._peek().kind)
        if node is None:
            return left
        self._advance()
        return node(left, self.unary())

    def unary(self) -> BasicExpr:
        tok = self._peek()
        if tok.kind == "IDENT":
            self._advance()
            return self._leaf(tok, Var)
        if tok.kind in ("top", "bot"):
            self._advance()
            return Top() if tok.kind == "top" else Bottom()
        if tok.kind == "~":
            return Neg(self._nested(self.unary))
        if tok.kind == "(":
            return self._nested(self.basic)
        raise ParseError("expected a basic expression", tok.pos)

    # -- atoms ----------------------------------------------------------------

    def grade(self) -> Grade:
        return self._leaf(self._expect("NUM", "a grade literal"), as_grade)

    def _leaf(self, tok: _Token, build: Callable):
        """``build(tok.text)``, once per memo; a ValueError is a ParseError at ``tok``."""
        value = self.memo.get(tok.text)
        if value is None:
            try:
                value = self.memo[tok.text] = build(tok.text)
            except ValueError as exc:
                raise ParseError(str(exc), tok.pos) from None
        return value

    def gi_atom(self) -> Atom:
        antecedents = [self.basic()]
        while self._peek().kind == ",":
            self._advance()
            antecedents.append(self.basic())
        self._expect("->", "'->['")
        self._expect("[", "'['")
        g = self.grade()
        self._expect("]", "']'")
        consequent = self.basic()
        return Atom(GradedImplication(tuple(antecedents), consequent, g))

    def q_atom(self) -> Atom:
        """``name , grade``, the name and comma already seen by ``term``."""
        self.pos += 2
        return Atom(GradedVariable(self.tokens[self.pos - 2].text, self.grade()))

    # -- formulas ---------------------------------------------------------------

    def term(self) -> OuterFormula:
        tok, i, t = self._peek(), self.pos, self.tokens
        if tok.kind == "!":
            return ONot(self._nested(self.term))
        if tok.kind != "(" or i in self.basic_groups:
            return self.gi_atom()
        end = self.close.get(i, i)  # an unclosed group fails to parse below
        key = self.text[tok.pos:t[end].pos + 1]
        hit = self.memo.get(key)
        if hit is not None and self._reach(self.depth + hit[1]):
            self.pos = end + 1
            return hit[0]
        outer_peak, self.peak = self.peak, self.depth
        graded_var = (t[i + 1].kind == "IDENT" and t[i + 2].kind == ","
                      and t[i + 3].kind not in _BASIC_START)
        node = self._nested(self.q_atom if graded_var else self.formula)
        self.memo[key] = (node, self.peak - self.depth)
        self.peak = max(outer_peak, self.peak)
        return node

    def formula(self) -> OuterFormula:
        left = self.term()
        tok = self._peek()
        node = _FORMULA_OPS.get(tok.kind)
        if node is None:
            return left
        self._advance()
        right = self.term()
        try:
            return node(left, right)
        except ValueError as exc:  # mixed atom kinds
            raise ParseError(str(exc), tok.pos) from None


# Exact token kind -> the node of a binary operator, one table per level.
_BASIC_OPS = {"&": And, "|": Or, "*": Strong}
_FORMULA_OPS = {"/\\": OAnd, "\\/": OOr, "=>": outer_implies}


def parse_basic(text: str) -> BasicExpr:
    """Parse a basic expression; raises ParseError with an offset on failure."""
    parser = _Parser(text, {})
    expr = parser.basic()
    parser._expect("EOF", "end of input")
    return expr


def parse_formula(text: str, memo: Union[dict, None] = None) -> OuterFormula:
    """Parse an outer formula (graded-implication or graded-variable atoms).

    ``memo``, a dict kept across the formulas of one script, maps the text
    of each bracketed subformula parsed (its only keys that start with
    ``(``) to its node and nesting height, and of each name and grade to its
    value.  Text seen before is reused where it nests within MAX_NESTING, so
    a script is parsed once, packrat-style, and results and errors are as
    without ``memo``."""
    if memo is None:
        memo = {}
    elif text.startswith("(") and text in memo:
        return memo[text][0]
    parser = _Parser(text, memo)
    f = parser.formula()
    parser._expect("EOF", "end of input (parenthesise chained operators)")
    return f


def parse_theory(text: str) -> tuple:
    """Parse a newline-separated list of formulas.

    Blank lines and lines starting with ``#`` are skipped; errors carry the
    1-based line number.
    """
    formulas = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            formulas.append(parse_formula(line))
        except ParseError as exc:
            raise ParseError(exc.message, exc.position, line=lineno) from None
    return tuple(formulas)
