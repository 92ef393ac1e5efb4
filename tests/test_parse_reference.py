"""The former parser, kept as the reference for ``supcalc.syntax``'s parse
kernel, and the differential tests against it.

The reference builds one ``Token`` (kind, text, line, column) per token in
a per-character loop, and its recursive descent reads them through
``peek``/``next``/``expect``.  The kernel must give an equal term, or an
equal ParseError (message, line, column and expected), on every input.
The only allowed difference is a non-decimal digit such as "²": the
reference read ``str.isdigit`` runs as integer literals and crashed in
``int()`` on them, and the kernel reads decimal digits only and refuses
such a character as unexpected.  A proposition nested between about 2000
and 10000 parentheses deep is another, which no test here reaches: the
reference took five frames per parenthesis and refused it as nested too
deeply, and the kernel takes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supcalc as sc
from supcalc import syntax as S
from supcalc.gen import TermGenerator
from supcalc.semiring import QNN, Semiring
from supcalc.syntax import (KEYWORDS, Lollipop, ParseError, Plus, Prop, Sup,
                            SupElim, Tensor, Term, Var, With, _FIELDS,
                            _FORMS, _KEYWORD_CLASS, _NULLARY, sup_elim)


# ---------------------------------------------------------------------------
# the reference: the former tokenizer and parser


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



class ReferenceParser:
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
    p = ReferenceParser(text, semiring)
    try:
        out = rule(p)
    except RecursionError:
        tok = p.toks[max(p.pos - 1, 0)]
        raise ParseError("input is nested too deeply", tok.line,
                         tok.col) from None
    p.done()
    return out


def reference_parse_term(text: str, semiring: Semiring = QNN) -> Term:
    return _parse(text, semiring, ReferenceParser.term)


def reference_parse_prop(text: str, semiring: Semiring = QNN) -> Prop:
    return _parse(text, semiring, ReferenceParser.prop)


def reference_parse_context(text: str, semiring: Semiring = QNN) -> tuple[tuple[str, Prop], ...]:
    """Parse a typing context written as ``x:A, y:B``."""
    text = text.strip()
    return _parse(text, semiring, ReferenceParser.context) if text else ()




# ---------------------------------------------------------------------------
# the kernel against the reference

PARSERS = {
    "term": (S.parse_term, reference_parse_term),
    "prop": (S.parse_prop, reference_parse_prop),
    "context": (S.parse_context, reference_parse_context),
}


def _outcome(parse, text):
    """What parse made of text, or its ParseError as a tuple headed by the
    class, which no parsed context starts with."""
    try:
        return parse(text)
    except ParseError as exc:
        return (ParseError, str(exc), exc.line, exc.col, exc.expected)


def _nondecimal_digit(c: str) -> bool:
    return c.isdigit() and not c.isdecimal()


def _offset(text: str, line: int, col: int) -> int:
    start = 0
    for _ in range(line - 1):
        start = text.index("\n", start) + 1
    return start + col - 1


def assert_same(rule: str, text: str):
    """The kernel's outcome on text equals the reference's, but where the
    reference read a non-decimal digit into an integer literal: there the
    kernel refuses the digit, or the "-" before it."""
    parse, reference = PARSERS[rule]
    got = _outcome(parse, text)
    try:
        want = _outcome(reference, text)
    except ValueError:  # int() of a non-decimal digit
        want = None
    if got == want:
        return
    assert isinstance(got, tuple) and got[0] is ParseError, (rule, text,
                                                              got, want)
    _, message, line, col, _ = got
    if rule == "context":  # parse_context reads the stripped text
        text = text.strip()
    at = _offset(text, line, col)
    digit = text[at + 1:at + 2] if text[at] == "-" else text[at]
    assert _nondecimal_digit(digit), (rule, text, got, want)
    assert message.endswith("stray '-'" if text[at] == "-" else
                            f"unexpected character {text[at]!r}"), got


def _chains(depth: int) -> list[str]:
    right = "sum(star(1)," * (depth - 1) + "star(1)" + ")" * (depth - 1)
    left = "sum(" * (depth - 1) + "star(1)" + ",star(1))" * (depth - 1)
    return [right, left]


def _encoded_sources() -> list[tuple[str, str]]:
    """(term, type) sources of encoded maps applied to a vector, for
    vector propositions of 1 to 4 components."""
    props = [sc.parse_prop(" & ".join(["one"] * n)) for n in range(1, 5)]
    out = []
    for i, a in enumerate(props):
        for j, b in enumerate(props):
            rows, cols = j + 1, i + 1
            m = [[Fraction((3 * r + c) % 5, 1 + (r + c) % 3)
                  for c in range(cols)] for r in range(rows)]
            f = sc.encode_matrix(m, a, b)
            v = sc.from_vector(sc.SVector(tuple(Fraction(k) for k in
                                                range(cols)), a))
            out.append((sc.print_term(sc.App(f, v)), sc.print_prop(b)))
            out.append((sc.print_term(f), sc.print_prop(sc.Lollipop(a, b))))
    return out


def _generated_sources(count: int = 200) -> list[tuple[str, str]]:
    gen = TermGenerator(seed=11, allow_sup_elim=True, max_depth=5)
    return [(sc.print_term(t), sc.print_prop(a))
            for t, a in (gen.closed() for _ in range(count))]


def _corpus_sources() -> list[tuple[str, str]]:
    return [(src, prop) for _, src, prop in sc.corpus_sources()]


@pytest.mark.parametrize("sources", [_corpus_sources, _generated_sources,
                                     _encoded_sources],
                         ids=["corpus", "generated", "encoded"])
def test_the_kernel_parses_as_the_reference_does(sources):
    for term_src, prop_src in sources():
        assert_same("term", term_src)
        assert_same("prop", prop_src)
        assert_same("context", f"x:{prop_src}, y : {prop_src}")


def test_every_prefix_and_deletion_of_the_corpus_fails_as_in_the_reference():
    # an error at every position of every corpus source, and at its end
    cases = 0
    for term_src, prop_src in _corpus_sources():
        for src, rule in ((term_src, "term"), (prop_src, "prop")):
            for k in range(len(src)):
                assert_same(rule, src[:k])
                assert_same(rule, src[:k] + src[k + 1:])
                cases += 2
    assert cases > 5000


@pytest.mark.parametrize("chain", _chains(3000), ids=["right", "left"])
def test_3000_deep_chains_parse_and_fail_as_in_the_reference(chain):
    assert_same("term", chain)
    middle = len(chain) // 2
    for broken in (chain[:-1], chain[:middle] + "," + chain[middle:],
                   chain[:middle] + "\n $" + chain[middle:]):
        assert_same("term", broken)


# Texts drawn from the grammar's tokens and from characters around them:
# whitespace and newlines, a lone "-", "(o" without its ")", a superscript
# digit, a fullwidth decimal digit, a vulgar fraction and a non-ASCII letter.
_PIECES = sorted(KEYWORDS) + [
    "x", "y", "z_1", "xé", "x²", "_", "0", "1", "12", "-3", "１", "٣",
    "(", ")", "{", "}", ",", ".", ":", "/", "&", "-o", "(*)", "(+)", "(o)",
    "(o", "-", " ", "\t", "\r", "\n", "\n\n", "²", "½", "é", "$", "\x0b",
]
_SEEDS = [src for src, _ in _corpus_sources()[:20]] + [
    "lam{one & one}(x,pair(snd(x),fst(x)))", "one (*) top -o zero & one",
    "x:one, y:one (o) one"]


@st.composite
def _texts(draw):
    """Token soup, or a valid source with a few pieces inserted or
    characters deleted."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=30)))
    text = draw(st.sampled_from(_SEEDS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_PIECES)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@settings(max_examples=600, deadline=None)
@given(_texts(), st.sampled_from(sorted(PARSERS)))
@example(" ²", "context")  # positions of a context are in its stripped text
def test_hypothesis_texts_parse_as_in_the_reference(text, rule):
    assert_same(rule, text)
