"""Abstract and concrete syntax for the calculus.

Terms are immutable trees; scalar fields hold carrier values of the ambient
semiring (exact rationals by default).  The concrete grammar is keyword
based and whitespace insensitive; see the package README for the full
grammar.  ``lam``, ``inl``, ``inr`` and ``zero_elim`` accept an optional
``{type}`` annotation, which the bidirectional checker uses where a type
cannot be synthesized from the term alone.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, Optional

from .semiring import QNN, Semiring, format_scalar, make_weight_pair

# weighted-sum terms over large run distributions are left-associated chains
# whose depth is the number of run results; give the recursive AST walks room
sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))

# ---------------------------------------------------------------------------
# Propositions


class Prop:
    __slots__ = ()

    def __str__(self) -> str:
        return print_prop(self)


@dataclass(frozen=True)
class One(Prop):
    pass


@dataclass(frozen=True)
class Top(Prop):
    pass


@dataclass(frozen=True)
class Zero(Prop):
    pass


@dataclass(frozen=True)
class Tensor(Prop):
    left: Prop
    right: Prop


@dataclass(frozen=True)
class Lollipop(Prop):
    left: Prop
    right: Prop


@dataclass(frozen=True)
class With(Prop):
    left: Prop
    right: Prop


@dataclass(frozen=True)
class Plus(Prop):
    left: Prop
    right: Prop


@dataclass(frozen=True)
class Sup(Prop):
    left: Prop
    right: Prop


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Scal(Term):
    scalar: object
    body: Term


@dataclass(frozen=True)
class Star(Term):
    scalar: object


@dataclass(frozen=True)
class UnitElim(Term):
    unit: Term
    body: Term


@dataclass(frozen=True)
class Lam(Term):
    var: str
    body: Term
    ann: Optional[Prop] = None


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Tens(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TensElim(Term):
    pair: Term
    left_var: str
    right_var: str
    body: Term


@dataclass(frozen=True)
class Unit(Term):
    pass


@dataclass(frozen=True)
class ZeroElim(Term):
    absurd: Term
    ann: Optional[Prop] = None


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Fst(Term):
    pair: Term


@dataclass(frozen=True)
class Snd(Term):
    pair: Term


@dataclass(frozen=True)
class Inl(Term):
    body: Term
    ann: Optional[Prop] = None  # type of the absent right component


@dataclass(frozen=True)
class Inr(Term):
    body: Term
    ann: Optional[Prop] = None  # type of the absent left component


@dataclass(frozen=True)
class Case(Term):
    scrutinee: Term
    left_var: str
    left_body: Term
    right_var: str
    right_body: Term


@dataclass(frozen=True)
class SupPair(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class SupFst(Term):
    pair: Term


@dataclass(frozen=True)
class SupSnd(Term):
    pair: Term


@dataclass(frozen=True)
class SupElim(Term):
    p: object
    q: object
    scrutinee: Term
    left_var: str
    left_body: Term
    right_var: str
    right_body: Term


@dataclass(frozen=True)
class Hole(Term):
    """The distinguished hole of a term context."""


def sup_elim(p, q, scrutinee, left_var, left_body, right_var, right_body,
             semiring: Semiring = QNN) -> SupElim:
    """Weight-validated constructor for the probabilistic pair destructor."""
    make_weight_pair(p, q, semiring)
    return SupElim(p, q, scrutinee, left_var, left_body, right_var, right_body)


# Per-class syntax tables, built once from the class definitions: the
# constructor's field order, and the names of the subterm fields.
_FIELDS = {cls: tuple(f.name for f in fields(cls))
           for cls in Term.__subclasses__()}
_CHILDREN = {cls: tuple(f.name for f in fields(cls) if f.type == "Term")
             for cls in Term.__subclasses__()}

# Binders maps each subterm field to the names bound inside it.
_BINDERS = {
    Lam: {"body": ("var",)},
    TensElim: {"body": ("left_var", "right_var")},
    Case: {"left_body": ("left_var",), "right_body": ("right_var",)},
    SupElim: {"left_body": ("left_var",), "right_body": ("right_var",)},
}
_BINDER_FIELDS = {cls: {v for vs in _BINDERS.get(cls, {}).values() for v in vs}
                  for cls in Term.__subclasses__()}

# The sup connective introduces and projects pairs exactly as & does; only
# elimination by cases differs (sup_elim mixes the branches by its weights).
# So every layer reads the pair forms of & and (o) from this one table: each
# connective's pair class and left and right projections, and the inverses.
_PAIRS = {With: (Pair, Fst, Snd), Sup: (SupPair, SupFst, SupSnd)}
_PAIR_PROP = {pair: conn for conn, (pair, _, _) in _PAIRS.items()}
_PROJECTION = {proj: (pair, side) for pair, fst, snd in _PAIRS.values()
               for proj, side in ((fst, "left"), (snd, "right"))}

# Each injection into a plus: the side its body fills, and the other side,
# which its annotation names.
_INJECTIONS = {Inl: ("left", "right"), Inr: ("right", "left")}


def subterm_fields(t: Term) -> tuple[str, ...]:
    return _CHILDREN[type(t)]


def bound_names(t: Term, field: str) -> tuple[str, ...]:
    spec = _BINDERS.get(type(t), {})
    return tuple(getattr(t, v) for v in spec.get(field, ()))


def _rebuild(t: Term, updates: dict[str, object]) -> Term:
    """t with some fields replaced.  Term classes have no __post_init__, so
    filling a new instance's fields directly makes the node the constructor
    would, without the constructor's frozen per-field writes."""
    new = object.__new__(type(t))
    new.__dict__.update(t.__dict__, **updates)
    return new


def subterms(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All subterms with their positions, outermost first, left to right."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        names = _CHILDREN[type(u)]
        for i in range(len(names) - 1, -1, -1):
            stack.append((pos + (i,), getattr(u, names[i])))


def nodes(t: Term) -> Iterator[Term]:
    """All subterms, in the order of ``subterms``, without their positions."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        names = _CHILDREN[type(u)]
        for i in range(len(names) - 1, -1, -1):
            stack.append(getattr(u, names[i]))


def replace_at(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    spine = []
    for i in pos:
        name = _CHILDREN[type(t)][i]
        spine.append((t, name))
        t = getattr(t, name)
    for node, name in reversed(spine):
        new = _rebuild(node, {name: new})
    return new


def fresh_name(base: str, taken: frozenset[str] | set[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


class _FreeVars:
    """Free variables, worked out once per node from its subterms' and kept
    for the life of the object.  Entries are keyed by node identity and
    hold their node, so that no id is reused by a term built while the
    object lives."""

    def __init__(self):
        self._free: dict[int, tuple[Term, frozenset[str]]] = {}

    def __call__(self, t: Term) -> frozenset[str]:
        hit = self._free.get(id(t))
        if hit is not None:
            return hit[1]
        if isinstance(t, Var):
            fv = frozenset((t.name,))
        else:
            acc: set[str] = set()
            for n in _CHILDREN[type(t)]:
                acc |= self(getattr(t, n)).difference(bound_names(t, n))
            fv = frozenset(acc)
        self._free[id(t)] = (t, fv)
        return fv


def free_vars(t: Term) -> frozenset[str]:
    return _FreeVars()(t)


def subst_parallel(t: Term, mapping: dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution of free variables.

    A binder is renamed only when it would capture a free variable of an
    image; its fresh name avoids the body's free variables, the mapped
    names, the node's binders, the names given so far and the images'
    free variables.  Free variables are worked out once per node for the
    whole call, so it takes time linear in the size of t and the images."""
    return _subst(t, mapping, None)


def _subst(t: Term, mapping: dict[str, Term],
           fvs: Optional[_FreeVars]) -> Term:
    """subst_parallel(t, mapping), reading free variables from fvs, which
    is made at the first node that needs it."""
    mapping = {x: v for x, v in mapping.items() if v != Var(x)}
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Hole):
        return t
    if fvs is None:
        fvs = _FreeVars()
    fv = fvs(t)
    relevant = {x: v for x, v in mapping.items() if x in fv}
    if not relevant:
        return t
    updates: dict[str, object] = {}
    binder_spec = _BINDERS.get(type(t), {})
    renames: dict[str, str] = {}
    for field in _CHILDREN[type(t)]:
        body = getattr(t, field)
        bvars = binder_spec.get(field, ())
        bound = {getattr(t, b) for b in bvars}
        fv_body = fvs(body)
        local = {x: v for x, v in relevant.items()
                 if x not in bound and x in fv_body}
        # rename binders that would capture free variables of the images
        for b in bvars:
            bname = getattr(t, b)
            if not any(bname in fvs(v) for v in local.values()):
                continue
            taken = set(fv_body) | set(local) | bound
            taken |= set(renames.values())
            for v in local.values():
                taken |= fvs(v)
            new_name = fresh_name(bname, taken)
            renames[b] = new_name
            body = _subst(body, {bname: Var(new_name)}, fvs)
        new_body = _subst(body, local, fvs) if local else body
        if new_body is not body or body is not getattr(t, field):
            updates[field] = new_body
    for b, new_name in renames.items():
        updates[b] = new_name
    return _rebuild(t, updates) if updates else t


def substitute(v: Term, x: str, t: Term) -> Term:
    """The substitution of x by v in t, written (v/x)t."""
    return _subst(t, {x: v}, None)


# ---------------------------------------------------------------------------
# Term contexts


def hole_count(t: Term) -> int:
    return sum(1 for u in nodes(t) if type(u) is Hole)


def fill(context: Term, t: Term) -> Term:
    """Plug t into the hole, textually: the hole is not a binder, so no
    renaming happens and capture is intended.

    One pass in postorder: a child whose filled form is the child itself
    holds no hole, and its parent is kept as it is."""
    filled: list[Term] = []
    stack: list = [(context, None)]
    while stack:
        u, names = stack.pop()
        if names is None:
            if isinstance(u, Hole):
                filled.append(t)
                continue
            names = _CHILDREN[type(u)]
            stack.append((u, names))
            stack.extend((getattr(u, n), None) for n in reversed(names))
            continue
        kids = filled[len(filled) - len(names):]
        del filled[len(filled) - len(names):]
        updates = {n: k for n, k in zip(names, kids) if k is not getattr(u, n)}
        filled.append(_rebuild(u, updates) if updates else u)
    return filled[0]


def compose_contexts(outer: Term, inner: Term) -> Term:
    """Plug the inner context into the outer one's hole."""
    return fill(outer, inner)


# ---------------------------------------------------------------------------
# Alpha equivalence and canonical renaming


def alpha_eq(t: Term, u: Term) -> bool:
    return _alpha(t, u, {}, {}, 0)


def _alpha(t: Term, u: Term, envt: dict, envu: dict, depth: int) -> bool:
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return envt.get(t.name, t.name) == envu.get(u.name, u.name)
    for name in _FIELDS[type(t)]:
        a, b = getattr(t, name), getattr(u, name)
        if isinstance(a, Term):
            bt = bound_names(t, name)
            bu = bound_names(u, name)
            et, eu = envt, envu
            d = depth
            for x, y in zip(bt, bu):
                et = {**et, x: d}
                eu = {**eu, y: d}
                d += 1
            if not _alpha(a, b, et, eu, d):
                return False
        elif isinstance(a, str) and name in _BINDER_FIELDS[type(t)]:
            continue  # binder names are compared via the environment
        else:
            if a != b:
                return False
    return True


def canonical(t: Term) -> Term:
    """Rename every binder to v0, v1, ... in traversal order.

    Alpha-equivalent terms have identical canonical forms, so the printed
    canonical form is a valid multiset key for closed values.
    """
    counter = [0]

    def go(u: Term, env: dict[str, str]) -> Term:
        if isinstance(u, Var):
            return Var(env.get(u.name, u.name))
        updates: dict[str, object] = {}
        spec = _BINDERS.get(type(u), {})
        for field in subterm_fields(u):
            body = getattr(u, field)
            local = dict(env)
            for b in spec.get(field, ()):
                new = f"v{counter[0]}"
                counter[0] += 1
                local[getattr(u, b)] = new
                updates[b] = new
            updates[field] = go(body, local)
        return _rebuild(u, updates) if updates else u

    return go(t, {})


# ---------------------------------------------------------------------------
# Concrete syntax: tokenizer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


@dataclass(frozen=True)
class Token:
    kind: str  # 'name', 'int', 'punct', 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("-o", i):
            toks.append(Token("punct", "-o", line, col))
            i += 2
            col += 2
            continue
        if c == "(" and i + 2 < n and text[i + 1] in "*+o" and text[i + 2] == ")":
            toks.append(Token("punct", text[i:i + 3], line, col))
            i += 3
            col += 3
            continue
        if c in "(){},.:/&":
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c == "-" or c.isdigit():
            j = i + 1 if c == "-" else i
            if j >= n or not text[j].isdigit():
                raise ParseError(f"stray {c!r}", line, col)
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Concrete syntax of the term forms, read by both the parser and the printer:
# the keyword, then punctuation and the constructor fields in written order.
# "{ann}" is an optional type annotation; every other field is parsed and
# printed as a term, a name or a scalar, according to its declared type.

_TEMPLATES = {
    Sum: "sum(left,right)", Scal: "scal(scalar,body)", Star: "star(scalar)",
    UnitElim: "unit_elim(unit,body)", Lam: "lam{ann}(var,body)",
    App: "app(fn,arg)", Tens: "tens(left,right)",
    TensElim: "let_tens(pair,left_var,right_var,body)", Unit: "unit",
    ZeroElim: "zero_elim{ann}(absurd)", Pair: "pair(left,right)",
    Fst: "fst(pair)", Snd: "snd(pair)", Inl: "inl{ann}(body)",
    Inr: "inr{ann}(body)",
    Case: "case(scrutinee,left_var.left_body,right_var.right_body)",
    SupPair: "sup(left,right)", SupFst: "supfst(pair)", SupSnd: "supsnd(pair)",
    SupElim: "sup_elim{p,q}(scrutinee,left_var.left_body,"
             "right_var.right_body)",
}


def _form(cls, template: str) -> list[tuple[str, str]]:
    """(kind, text) pieces; kind is "lit" for the keyword and punctuation."""
    kinds = {f.name: "term" if f.name in _CHILDREN[cls] else
             "name" if f.type == "str" else "scalar"
             for f in fields(cls)}
    return [("ann", "ann") if tok == "{ann}" else (kinds.get(tok, "lit"), tok)
            for tok in re.findall(r"\{ann\}|\w+|\S", template)]


_FORMS = {cls: _form(cls, template) for cls, template in _TEMPLATES.items()}
_KEYWORD_CLASS = {form[0][1]: cls for cls, form in _FORMS.items()}
TERM_KEYWORDS = set(_KEYWORD_CLASS)
# the words of the nullary propositions, read by the parser and the printer
_NULLARY = {"one": One, "top": Top, "zero": Zero}
_NULLARY_WORD = {cls: word for word, cls in _NULLARY.items()}
PROP_KEYWORDS = set(_NULLARY)
KEYWORDS = TERM_KEYWORDS | PROP_KEYWORDS


# ---------------------------------------------------------------------------
# Concrete syntax: parser


class _Parser:
    def __init__(self, text: str, semiring: Semiring):
        self.toks = tokenize(text)
        self.pos = 0
        self.sr = semiring

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of input"
        return ParseError(f"unexpected {got!r}", tok.line, tok.col, expected)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            return self.next()
        raise self.fail((text,))

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def name(self) -> str:
        tok = self.peek()
        if tok.kind == "name" and tok.text not in KEYWORDS:
            return self.next().text
        raise self.fail(("variable name",))

    def scalar(self):
        tok = self.peek()
        if tok.kind != "int":
            raise self.fail(("scalar literal",))
        self.next()
        num = int(tok.text)
        if self.at("/"):
            self.next()
            dtok = self.peek()
            if dtok.kind != "int":
                raise self.fail(("denominator",))
            self.next()
            den = int(dtok.text)
            if den == 0:
                raise ParseError("zero denominator", dtok.line, dtok.col)
            frac = Fraction(num, den)
        else:
            frac = Fraction(num)
        try:
            return self.sr.from_literal(frac)
        except RecursionError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    # -- propositions: -o is right associative and loosest; then (+) and (o),
    # then &, then (*); all left associative.

    def prop(self) -> Prop:
        left = self.prop_additive()
        if self.at("-o"):
            self.next()
            return Lollipop(left, self.prop())
        return left

    def prop_additive(self) -> Prop:
        left = self.prop_with()
        while self.at("(+)") or self.at("(o)"):
            op = self.next().text
            right = self.prop_with()
            left = Plus(left, right) if op == "(+)" else Sup(left, right)
        return left

    def prop_with(self) -> Prop:
        left = self.prop_tensor()
        while self.at("&"):
            self.next()
            left = With(left, self.prop_tensor())
        return left

    def prop_tensor(self) -> Prop:
        left = self.prop_atom()
        while self.at("(*)"):
            self.next()
            left = Tensor(left, self.prop_atom())
        return left

    def prop_atom(self) -> Prop:
        tok = self.peek()
        if tok.kind == "name" and tok.text in _NULLARY:
            self.next()
            return _NULLARY[tok.text]()
        if self.at("("):
            self.next()
            inner = self.prop()
            self.expect(")")
            return inner
        raise self.fail((*_NULLARY, "("))

    # -- terms

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind != "name":
            raise self.fail(("term",))
        word = tok.text
        if word not in KEYWORDS:
            self.next()
            return Var(word)
        if word not in _KEYWORD_CLASS:
            raise self.fail(("term keyword",))
        self.next()
        cls, at = _KEYWORD_CLASS[word], self.peek()
        values = {}
        for kind, text in _FORMS[cls][1:]:
            if kind == "lit":
                self.expect(text)
            elif kind == "ann":
                values[text] = self._ann()
            else:
                values[text] = getattr(self, kind)()
        args = [values[name] for name in _FIELDS[cls]]
        if cls is not SupElim:
            return cls(*args)
        try:
            return sup_elim(*args, self.sr)
        except RecursionError:
            raise
        except Exception as exc:
            raise ParseError(str(exc), at.line, at.col) from None

    def _ann(self) -> Optional[Prop]:
        if self.at("{"):
            self.next()
            ann = self.prop()
            self.expect("}")
            return ann
        return None

    def context(self) -> tuple[tuple[str, Prop], ...]:
        out = []
        while True:
            x = self.name()
            self.expect(":")
            out.append((x, self.prop()))
            if not self.at(","):
                return tuple(out)
            self.next()

    def done(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise self.fail(("end of input",))


def _parse(text: str, semiring: Semiring, rule):
    """rule run on a parser of text, which must then be at its end.  The
    parser recurses once per nesting level, so input nested deeper than
    the interpreter's recursion limit is refused at the last token read."""
    p = _Parser(text, semiring)
    try:
        out = rule(p)
    except RecursionError:
        tok = p.toks[max(p.pos - 1, 0)]
        raise ParseError("input is nested too deeply", tok.line,
                         tok.col) from None
    p.done()
    return out


def parse_term(text: str, semiring: Semiring = QNN) -> Term:
    return _parse(text, semiring, _Parser.term)


def parse_prop(text: str, semiring: Semiring = QNN) -> Prop:
    return _parse(text, semiring, _Parser.prop)


def parse_context(text: str, semiring: Semiring = QNN) -> tuple[tuple[str, Prop], ...]:
    """Parse a typing context written as ``x:A, y:B``."""
    text = text.strip()
    return _parse(text, semiring, _Parser.context) if text else ()


# ---------------------------------------------------------------------------
# Printer

_PROP_LEVEL = {Lollipop: 0, Plus: 1, Sup: 1, With: 2, Tensor: 3}


def print_prop(a: Prop) -> str:
    return _pp(a, 0)


def _pp(a: Prop, level: int) -> str:
    if type(a) in _NULLARY_WORD:
        return _NULLARY_WORD[type(a)]
    my = _PROP_LEVEL[type(a)]
    op = {Lollipop: " -o ", Plus: " (+) ", Sup: " (o) ",
          With: " & ", Tensor: " (*) "}[type(a)]
    if isinstance(a, Lollipop):
        s = _pp(a.left, my + 1) + op + _pp(a.right, my)  # right associative
    else:
        s = _pp(a.left, my) + op + _pp(a.right, my + 1)
    return f"({s})" if my < level else s


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if type(t) not in _PRINT_FORMS:
        raise TypeError(f"not a term: {t!r}")
    pieces, tail = _PRINT_FORMS[type(t)]
    out = ""
    for lit, name, show in pieces:
        out += lit + show(getattr(t, name))
    return out + tail


def _print_ann(a: Optional[Prop]) -> str:
    return "" if a is None else "{" + print_prop(a) + "}"


_SHOW = {"term": print_term, "name": str, "scalar": format_scalar,
         "ann": _print_ann}


def _print_form(form: list[tuple[str, str]]):
    """((literal text before a field, the field, its printer), ...) and the
    literal text after the last field."""
    pieces, lit = [], ""
    for kind, text in form:
        if kind == "lit":
            lit += text
        else:
            pieces.append((lit, text, _SHOW[kind]))
            lit = ""
    return tuple(pieces), lit


_PRINT_FORMS = {cls: _print_form(form) for cls, form in _FORMS.items()}
_PRINT_FORMS[Hole] = ((), "[.]")
