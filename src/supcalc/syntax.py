"""Abstract and concrete syntax for the calculus.

Terms are immutable trees; scalar fields hold carrier values of the ambient
semiring (exact rationals by default).  The concrete grammar is keyword
based and whitespace insensitive; see the package README for the full
grammar.  ``lam``, ``inl``, ``inr`` and ``zero_elim`` accept an optional
``{type}`` annotation, which the bidirectional checker uses where a type
cannot be synthesized from the term alone.

A term node keeps facts about itself, each worked out when first asked
for and kept for the node's life: its free variables (``free_vars``),
whether it absorbs (``checker.can_absorb``) and a weak link to its last
derivation; a proposition keeps its dimension (``denote.denote_prop``).
Later calls reuse what earlier ones learned about the same object; an
equal but distinct node learns its own.

A node keeps its fields and its facts in slots, and has no ``__dict__``.
Its class's constructor writes each slot directly and sets every fact to
None, which means unset, so a reader tests a fact with ``is None``.
``_node``, ``_rebuild``, copies and unpickled nodes are all built by that
constructor from fields alone, so they carry no fact; ``==``, ``hash`` and
``repr`` read the fields only.
"""

from __future__ import annotations

import re
import sys
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional

from .semiring import (QNN, Semiring, SemiringError, format_scalar,
                       make_weight_pair)

# weighted-sum terms over large run distributions are left-associated chains
# whose depth is the number of run results; give the recursive AST walks room
sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))

# ---------------------------------------------------------------------------
# Node classes


def _slotted(cls):
    """cls as a frozen dataclass whose fields are slots.  Its constructor
    writes each field's slot directly and sets each fact, a slot that a
    base class of cls declares, to None, which means unset.  A copy or an
    unpickled node is built by the same constructor, from the fields that
    the dataclass's ``__getstate__`` gives, so it keeps no fact."""
    cls = dataclass(frozen=True, slots=True)(cls)
    facts = [name for base in cls.__mro__[1:]
             for name in base.__dict__.get("__slots__", ())
             if name != "__weakref__"]
    env, params, body = {}, ["self"], []
    for f in fields(cls):
        env[f"_field_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _field_{f.name}(self, {f.name})\n")
    for name in facts:
        env[f"_fact{name}"] = getattr(cls, name).__set__
        body.append(f"    _fact{name}(self, None)\n")
    exec(f"def __init__({', '.join(params)}):\n{''.join(body) or '    pass'}",
         env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = env["__init__"]
    cls.__setstate__ = _setstate
    return cls


def _setstate(self, state) -> None:
    self.__init__(*state)


# ---------------------------------------------------------------------------
# Propositions


class Prop:
    __slots__ = ("_dim",)  # its fact (see the module docstring)

    def __str__(self) -> str:
        return print_prop(self)


@_slotted
class One(Prop):
    pass


@_slotted
class Top(Prop):
    pass


@_slotted
class Zero(Prop):
    pass


@_slotted
class Tensor(Prop):
    left: Prop
    right: Prop


@_slotted
class Lollipop(Prop):
    left: Prop
    right: Prop


@_slotted
class With(Prop):
    left: Prop
    right: Prop


@_slotted
class Plus(Prop):
    left: Prop
    right: Prop


@_slotted
class Sup(Prop):
    left: Prop
    right: Prop


# ---------------------------------------------------------------------------
# Terms


class Term:
    # the facts a node keeps about itself (see the module docstring)
    __slots__ = ("_fv", "_absorbs", "_deriv")

    def __str__(self) -> str:
        return print_term(self)


@_slotted
class Var(Term):
    name: str


@_slotted
class Sum(Term):
    left: Term
    right: Term


@_slotted
class Scal(Term):
    scalar: object
    body: Term


@_slotted
class Star(Term):
    scalar: object


@_slotted
class UnitElim(Term):
    unit: Term
    body: Term


@_slotted
class Lam(Term):
    var: str
    body: Term
    ann: Optional[Prop] = None


@_slotted
class App(Term):
    fn: Term
    arg: Term


@_slotted
class Tens(Term):
    left: Term
    right: Term


@_slotted
class TensElim(Term):
    pair: Term
    left_var: str
    right_var: str
    body: Term


@_slotted
class Unit(Term):
    pass


@_slotted
class ZeroElim(Term):
    absurd: Term
    ann: Optional[Prop] = None


@_slotted
class Pair(Term):
    left: Term
    right: Term


@_slotted
class Fst(Term):
    pair: Term


@_slotted
class Snd(Term):
    pair: Term


@_slotted
class Inl(Term):
    body: Term
    ann: Optional[Prop] = None  # type of the absent right component


@_slotted
class Inr(Term):
    body: Term
    ann: Optional[Prop] = None  # type of the absent left component


@_slotted
class Case(Term):
    scrutinee: Term
    left_var: str
    left_body: Term
    right_var: str
    right_body: Term


@_slotted
class SupPair(Term):
    left: Term
    right: Term


@_slotted
class SupFst(Term):
    pair: Term


@_slotted
class SupSnd(Term):
    pair: Term


@_slotted
class SupElim(Term):
    p: object
    q: object
    scrutinee: Term
    left_var: str
    left_body: Term
    right_var: str
    right_body: Term


@_slotted
class Hole(Term):
    """The distinguished hole of a term context."""


def sup_elim(p, q, scrutinee, left_var, left_body, right_var, right_body,
             semiring: Semiring = QNN) -> SupElim:
    """Weight-validated constructor for the probabilistic pair destructor."""
    make_weight_pair(p, q, semiring)
    return SupElim(p, q, scrutinee, left_var, left_body, right_var, right_body)


# Per-class syntax tables, built once from the class definitions: the
# constructor's field order, and the names of the subterm fields.  The
# classes are named here, since Term.__subclasses__() also lists the
# classes that the slotted dataclasses replaced until they are collected.
_TERM_CLASSES = (Var, Sum, Scal, Star, UnitElim, Lam, App, Tens, TensElim,
                 Unit, ZeroElim, Pair, Fst, Snd, Inl, Inr, Case, SupPair,
                 SupFst, SupSnd, SupElim, Hole)
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _TERM_CLASSES}
_CHILDREN = {cls: tuple(f.name for f in fields(cls) if f.type == "Term")
             for cls in _TERM_CLASSES}

# Binders maps each subterm field to the names bound inside it.
_BINDERS = {
    Lam: {"body": ("var",)},
    TensElim: {"body": ("left_var", "right_var")},
    Case: {"left_body": ("left_var",), "right_body": ("right_var",)},
    SupElim: {"left_body": ("left_var",), "right_body": ("right_var",)},
}
_BINDER_FIELDS = {cls: {v for vs in _BINDERS.get(cls, {}).values() for v in vs}
                  for cls in _TERM_CLASSES}

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


def _binder_reader(names: tuple[str, ...]):
    """The function that reads the fields named in names off a node, as
    one tuple in that order."""
    env: dict = {}
    exec(f"def bound(t):\n    return ({''.join(f't.{v}, ' for v in names)})\n",
         env)
    return env["bound"]


# per class, each subterm field that binds names and the reader of them
_BOUND = {cls: {field: _binder_reader(names)
                for field, names in _BINDERS.get(cls, {}).items()}
          for cls in _TERM_CLASSES}


def bound_names(t: Term, field: str) -> tuple[str, ...]:
    bound = _BOUND[type(t)].get(field)
    return () if bound is None else bound(t)


def _node(cls, fields: dict[str, object]) -> Term:
    """The node of class cls with the fields given by name in fields, which
    names each of cls's fields: the constructor's node, with no fact."""
    return cls(**fields)


def _rebuilder(cls):
    """_rebuild's function for cls: one call of cls's constructor, which
    reads each field from updates if it names it, else from t."""
    args = ", ".join(f"updates[{n!r}] if {n!r} in updates else t.{n}"
                     for n in _FIELDS[cls])
    env = {"cls": cls}
    exec(f"def rebuild(t, updates):\n    return cls({args})\n", env)
    return env["rebuild"]


_REBUILDERS = {cls: _rebuilder(cls) for cls in _TERM_CLASSES}


def _rebuild(t: Term, updates: dict[str, object]) -> Term:
    """t with some fields replaced, built by the constructor of its class,
    so it keeps none of t's facts."""
    return _REBUILDERS[type(t)](t, updates)


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


_NO_NAMES: frozenset[str] = frozenset()


# the free variables of a variable of each name, one set per name for the
# process's life: there are as many as the distinct names met
_NAME_SETS: dict[str, frozenset[str]] = {}


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t.  A node works them out once, from its
    subterms', and keeps them; where they are a subterm's, it shares that
    subterm's set, and every variable of one name shares one set."""
    fv = t._fv
    if fv is not None:
        return fv
    cls = type(t)
    if cls is Var:
        fv = _NAME_SETS.get(t.name)
        if fv is None:
            fv = _NAME_SETS[t.name] = frozenset((t.name,))
    else:
        fv = _NO_NAMES
        for n in _CHILDREN[cls]:
            sub = free_vars(getattr(t, n))
            bound = bound_names(t, n)
            if bound and not sub.isdisjoint(bound):
                sub = sub.difference(bound) or _NO_NAMES
            if not sub <= fv:
                fv = sub if fv <= sub else fv | sub
    object.__setattr__(t, "_fv", fv)
    return fv


def subst_parallel(t: Term, mapping: dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution of free variables.

    A binder is renamed only when it would capture a free variable of an
    image; its fresh name avoids the body's free variables, the mapped
    names, the node's binders, the names given so far and the images'
    free variables.  Each node's free variables are worked out at most
    once (``free_vars``), so it takes time linear in the size of t and the
    images."""
    mapping = {x: v for x, v in mapping.items() if v != Var(x)}
    if not mapping:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Hole):
        return t
    fv = free_vars(t)
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
        fv_body = free_vars(body)
        local = {x: v for x, v in relevant.items()
                 if x not in bound and x in fv_body}
        # rename binders that would capture free variables of the images
        for b in bvars:
            bname = getattr(t, b)
            if not any(bname in free_vars(v) for v in local.values()):
                continue
            taken = set(fv_body) | set(local) | bound
            taken |= set(renames.values())
            for v in local.values():
                taken |= free_vars(v)
            new_name = fresh_name(bname, taken)
            renames[b] = new_name
            body = subst_parallel(body, {bname: Var(new_name)})
        new_body = subst_parallel(body, local) if local else body
        if new_body is not body or body is not getattr(t, field):
            updates[field] = new_body
    for b, new_name in renames.items():
        updates[b] = new_name
    return _rebuild(t, updates) if updates else t


def substitute(v: Term, x: str, t: Term) -> Term:
    """The substitution of x by v in t, written (v/x)t."""
    return subst_parallel(t, {x: v})


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


def _unbind(env: dict, undo: list) -> None:
    """Give back the entries of env that the (name, former value or None)
    pairs of undo replaced, the last first."""
    for x, old in reversed(undo):
        if old is None:
            del env[x]
        else:
            env[x] = old


def alpha_eq(t: Term, u: Term) -> bool:
    return _alpha(t, u, {}, {}, 0)


def _alpha(t: Term, u: Term, envt: dict, envu: dict, depth: int) -> bool:
    """Whether t and u are alike, where envt and envu map each name bound
    around t and u to the depth of its binder.  A field's binders are
    bound for its walk only."""
    if type(t) is not type(u):
        return False
    if isinstance(t, Var):
        return envt.get(t.name, t.name) == envu.get(u.name, u.name)
    for name in _FIELDS[type(t)]:
        a, b = getattr(t, name), getattr(u, name)
        if isinstance(a, Term):
            undo_t: list = []
            undo_u: list = []
            d = depth
            for x, y in zip(bound_names(t, name), bound_names(u, name)):
                undo_t.append((x, envt.get(x)))
                undo_u.append((y, envu.get(y)))
                envt[x] = envu[y] = d
                d += 1
            same = _alpha(a, b, envt, envu, d)
            _unbind(envt, undo_t)
            _unbind(envu, undo_u)
            if not same:
                return False
        elif isinstance(a, str) and name in _BINDER_FIELDS[type(t)]:
            continue  # binder names are compared via the environment
        else:
            if a != b:
                return False
    return True


def canonical(t: Term) -> Term:
    """Rename every binder to v0, v1, ... in traversal order, and leave
    free names as they are.  If a free name is one of those binder names,
    the binders are named vv0, vv1, ... instead, and so on, so that no
    free occurrence is captured.

    Alpha-equivalent terms have identical canonical forms, so the printed
    canonical form is a valid multiset key for values.
    """
    prefix = "v"
    names: list[str] = []
    free: set[str] = set()

    def go(u: Term, env: dict[str, str]) -> Term:
        # env maps each name bound around u to its new name; a field's
        # binders are bound for its walk only
        if isinstance(u, Var):
            if u.name in env:
                return Var(env[u.name])
            free.add(u.name)
            return u
        updates: dict[str, object] = {}
        spec = _BINDERS.get(type(u), {})
        for field in subterm_fields(u):
            undo = []
            for b in spec.get(field, ()):
                new = f"{prefix}{len(names)}"
                names.append(new)
                x = getattr(u, b)
                undo.append((x, env.get(x)))
                env[x] = new
                updates[b] = new
            updates[field] = go(getattr(u, field), env)
            _unbind(env, undo)
        return _rebuild(u, updates) if updates else u

    out = go(t, {})
    while not free.isdisjoint(names):
        prefix += "v"
        names.clear()
        out = go(t, {})
    return out


# ---------------------------------------------------------------------------
# Concrete syntax: tokens


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{hint}")


# One match per token: whitespace (" \t\r\n"), then the token in group 1,
# so that findall gives one string per token.  A token is a punctuation
# mark (_PUNCT), a name, a decimal integer literal or any other single
# character, which no parser rule accepts; its kind is read from the
# string itself (_is_name, _is_literal).  A name starts with a letter
# (str.isalpha) or "_" and goes on with str.isalnum characters or "_"; no
# pattern class is exactly str.isalpha, so the name pattern also starts at
# the other non-decimal numeric characters, such as "²", and
# _lexical_error refuses those.  Punctuation, the commonest token, comes
# first in the pattern, which makes it quicker to match.
_TOKEN = re.compile(r"[ \t\r\n]*(-o|\([*+o]\)|[(){},.:/&]|[^\W\d]\w*"
                    r"|-?\d+|[^ \t\r\n])")
_PUNCT = frozenset(("-o", "(*)", "(+)", "(o)", *"(){},.:/&"))
_END = ""  # after the last token; the parser never reads past it


def _is_name(tok: str) -> bool:
    c = tok[:1]
    return c.isalpha() or c == "_"


def _is_literal(tok: str) -> bool:
    c = tok[:1]
    return c.isdecimal() or c == "-" and tok[1:2].isdecimal()


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _lexical_error(text: str) -> Optional[ParseError]:
    """The error at the first character of text that starts no token, if
    there is one."""
    for m in _TOKEN.finditer(text):
        tok = m.group(1)
        if _is_name(tok) or _is_literal(tok) or tok in _PUNCT:
            continue
        offset = m.start(1)
        c = text[offset]
        message = f"stray {c!r}" if c == "-" else f"unexpected character {c!r}"
        return ParseError(message, *_line_col(text, offset))
    return None


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

# The binary connectives by their word: the class, its binding level and
# the least level its right operand is read at.  -o binds loosest and
# associates to the right; (+) and (o), then &, then (*) bind tighter and
# associate to the left.  The printer reads the same table.
_CONNECTIVES = {"-o": (Lollipop, 0, 0), "(+)": (Plus, 1, 2),
                "(o)": (Sup, 1, 2), "&": (With, 2, 3), "(*)": (Tensor, 3, 4)}
_CONNECTIVE_WORD = {cls: word for word, (cls, _, _) in _CONNECTIVES.items()}
_PROP_LEVEL = {cls: level for cls, level, _ in _CONNECTIVES.values()}


# ---------------------------------------------------------------------------
# Concrete syntax: parser


# The deepest nesting of term forms and propositions the parser reads,
# below the recursion limit set above with room for the caller's frames.
MAX_NESTING = 9000


class _Parser:
    """Recursive descent over the token strings of one text.  A rule takes
    the index of its first token and returns what it read with the index
    of the token after it.  Each term form has its own reader
    (``_READERS``, generated from ``_FORMS``), which reads a subterm by
    calling the reader its first token names, so that a nesting level
    costs one frame, as a parenthesis or a connective's right operand does
    in ``prop``.  A token's line and column are worked out only for an
    error, by matching the text again up to that token.  The form past
    MAX_NESTING deep is refused at its first token, so where depends on
    the text alone; a RecursionError, which a caller deep in its own stack
    may meet first, at the innermost rule's token."""

    def __init__(self, text: str, semiring: Semiring):
        self.text = text
        self.toks = _TOKEN.findall(text)
        self.toks.append(_END)
        self.sr = semiring
        self.depth = 0  # the term forms and propositions being read
        self.deepest = 0  # the innermost rule's token at a RecursionError

    def nest(self, i: int) -> int:
        """The depth of the form at token i, refused past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise self.error("input is nested too deeply", i)
        self.depth += 1
        return self.depth

    def error(self, message: str, i: int, expected=()) -> ParseError:
        """message at token i, unless the text holds a tokenizer error,
        which comes first."""
        lexical = _lexical_error(self.text)
        if lexical is not None:
            return lexical
        m = next(islice(_TOKEN.finditer(self.text), i, None), None)
        offset = len(self.text) if m is None else m.start(1)
        return ParseError(message, *_line_col(self.text, offset), expected)

    def fail(self, i: int, expected) -> ParseError:
        got = self.toks[i] or "end of input"
        return self.error(f"unexpected {got!r}", i, expected)

    def name(self, i: int) -> tuple[str, int]:
        name = self.toks[i]
        if name in KEYWORDS or not _is_name(name):
            raise self.fail(i, ("variable name",))
        return name, i + 1

    def scalar(self, i: int):
        """The literal n or n/d at token i, as a carrier value."""
        toks = self.toks
        num = toks[i]
        # isdecimal first, as most literals have no sign
        if not (num.isdecimal() or _is_literal(num)):
            raise self.fail(i, ("scalar literal",))
        den, end = "", i + 1
        if toks[end] == "/":
            den, end = toks[i + 2], i + 3
            if not (den.isdecimal() or _is_literal(den)):
                raise self.fail(i + 2, ("denominator",))
        try:
            lit = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ValueError:  # beyond the interpreter's digit limit for int()
            raise self.error("scalar literal has too many digits", i) from None
        except ZeroDivisionError:
            raise self.error("zero denominator", i + 2) from None
        try:
            return self.sr.from_literal(lit), end
        except (SemiringError, ArithmeticError) as exc:
            raise self.error(str(exc), i) from None

    def ann(self, i: int) -> tuple[Optional[Prop], int]:
        if self.toks[i] != "{":
            return None, i
        a, i = self.prop(i + 1)
        if self.toks[i] != "}":
            raise self.fail(i, ("}",))
        return a, i + 1

    def prop(self, i: int, level: int = 0) -> tuple[Prop, int]:
        """The proposition at token i, whose connectives outside
        parentheses bind at level or tighter."""
        toks = self.toks
        try:
            depth = self.nest(i)
            tok = toks[i]
            if tok in _NULLARY:
                left, i = _NULLARY[tok](), i + 1
            elif tok == "(":
                left, i = self.prop(i + 1)
                if toks[i] != ")":
                    raise self.fail(i, (")",))
                i += 1
            else:
                raise self.fail(i, (*_NULLARY, "("))
            while True:
                conn = _CONNECTIVES.get(toks[i])
                if conn is None or conn[1] < level:
                    self.depth = depth - 1
                    return left, i
                right, i = self.prop(i + 1, conn[2])
                left = conn[0](left, right)
        except RecursionError:
            if i > self.deepest:
                self.deepest = i
            raise

    def term(self, i: int) -> tuple[Term, int]:
        return _READERS.get(self.toks[i], _Parser.leaf)(self, i)

    def leaf(self, i: int) -> tuple[Term, int]:
        """The variable at token i, which starts no term form."""
        word = self.toks[i]
        if not _is_name(word):
            raise self.fail(i, ("term",))
        if word in KEYWORDS:
            raise self.fail(i, ("term keyword",))
        return Var(word), i + 1

    def context(self, i: int) -> tuple[tuple[tuple[str, Prop], ...], int]:
        out = []
        while True:
            x, i = self.name(i)
            if self.toks[i] != ":":
                raise self.fail(i, (":",))
            a, i = self.prop(i + 1)
            out.append((x, a))
            if self.toks[i] != ",":
                return tuple(out), i
            i += 1


# each term form's reader by its keyword
_READERS: dict[str, object] = {}


def _reader(cls):
    """The reader of cls's form, generated from its pieces in _FORMS.  It
    takes the index of the keyword and counts the form's depth there, as
    ``nest`` does.  It checks each punctuation mark in place, reads a
    name, a scalar or an annotation by the parser's rule and a subterm by
    the reader its first token names (``leaf`` for any other token), and
    calls the constructor with the fields, held in locals of their names,
    in _FIELDS order.  ``sup_elim`` goes through ``syntax.sup_elim``,
    which checks its weights; a weight error is at the token after the
    keyword."""
    body = ["toks = self.toks", "try:", "    depth = self.depth",
            "    if depth == MAX_NESTING:",
            "        raise self.error('input is nested too deeply', i)",
            "    self.depth = depth + 1",
            "    at = i = i + 1" if cls is SupElim else "    i += 1"]
    for kind, text in _FORMS[cls][1:]:
        if kind == "lit":
            body += [f"    if toks[i] != {text!r}:",
                     f"        raise self.fail(i, ({text!r},))",
                     "    i += 1"]
        elif kind == "term":
            body.append(f"    {text}, i = _read(toks[i], _leaf)(self, i)")
        else:
            body.append(f"    {text}, i = self.{kind}(i)")
    args = ", ".join(_FIELDS[cls])
    body.append("    self.depth = depth")
    if cls is not SupElim:
        body.append(f"    return cls({args}), i")
    body += ["except RecursionError:", "    if i > self.deepest:",
             "        self.deepest = i", "    raise"]
    if cls is SupElim:
        body += ["try:", f"    return sup_elim({args}, self.sr), i",
                 "except SemiringError as exc:",
                 "    raise self.error(str(exc), at) from None"]
    env = {"cls": cls, "MAX_NESTING": MAX_NESTING, "_read": _READERS.get,
           "_leaf": _Parser.leaf, "sup_elim": sup_elim,
           "SemiringError": SemiringError}
    exec("def read(self, i):\n" + "".join(f"    {line}\n" for line in body),
         env)
    env["read"].__qualname__ = f"_reader.<{cls.__name__}>"
    return env["read"]


_READERS.update((word, _reader(cls)) for word, cls in _KEYWORD_CLASS.items())


def _parse(text: str, semiring: Semiring, rule):
    """rule run on the tokens of text, which it must read to the end."""
    if not text.isascii():  # where a name may start with a non-letter
        lexical = _lexical_error(text)
        if lexical is not None:
            raise lexical
    p = _Parser(text, semiring)
    try:
        out, i = rule(p, 0)
    except RecursionError:
        raise p.error("input is nested too deeply", p.deepest) from None
    if i != len(p.toks) - 1:
        raise p.fail(i, ("end of input",))
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


def print_prop(a: Prop) -> str:
    """a's source text, its pieces joined once, as ``print_term`` does."""
    out: list[str] = []
    _pp_into(a, 0, out)
    return "".join(out)


def _pp_into(a: Prop, level: int, out: list[str]) -> None:
    """a's pieces, parenthesized where a binds looser than level."""
    word = _NULLARY_WORD.get(type(a))
    if word is not None:
        out.append(word)
        return
    my = _PROP_LEVEL[type(a)]
    if my < level:
        out.append("(")
    if type(a) is Lollipop:  # right associative
        left_level, right_level = my + 1, my
    else:
        left_level, right_level = my, my + 1
    _pp_into(a.left, left_level, out)
    out.append(f" {_CONNECTIVE_WORD[type(a)]} ")
    _pp_into(a.right, right_level, out)
    if my < level:
        out.append(")")


def print_term(t: Term) -> str:
    """t's source text.  The pieces of every level go into one list, joined
    once, so a term prints in time linear in its size at any depth."""
    out: list[str] = []
    _print_into(t, out)
    return "".join(out)


def _print_into(t: Term, out: list[str]) -> None:
    if isinstance(t, Var):
        out.append(t.name)
        return
    if type(t) not in _PRINT_FORMS:
        raise TypeError(f"not a term: {t!r}")
    pieces, tail = _PRINT_FORMS[type(t)]
    for lit, name, show in pieces:
        out.append(lit)
        if show is None:
            _print_into(getattr(t, name), out)
        else:
            out.append(show(getattr(t, name)))
    out.append(tail)


def _print_ann(a: Optional[Prop]) -> str:
    return "" if a is None else "{" + print_prop(a) + "}"


# a subterm (None) is printed into the same list by _print_into
_SHOW = {"term": None, "name": str, "scalar": format_scalar,
         "ann": _print_ann}


def _print_form(form: list[tuple[str, str]]):
    """((literal text before a field, the field, its printer or None for a
    subterm), ...) and the literal text after the last field."""
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
