"""End-to-end command line coverage with golden outputs."""

from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supcalc as sc
from supcalc.cli import main

T_SOURCE = "sup_elim{1/2,1/2}(sup(star(1/2),star(1/2)),x.x,y.y)\n"
U_SOURCE = "sup_elim{1/2,1/2}(sup(star(3/4),star(1/4)),x.x,y.y)\n"


@pytest.fixture
def tfile(tmp_path):
    p = tmp_path / "t.lsup"
    p.write_text(T_SOURCE)
    return str(p)


@pytest.fixture
def ufile(tmp_path):
    p = tmp_path / "u.lsup"
    p.write_text(U_SOURCE)
    return str(p)


def test_parse_echoes_canonical_form(tfile, capsys):
    assert main(["parse", tfile]) == 0
    assert capsys.readouterr().out.strip() == T_SOURCE.strip()


def test_parse_prop(tmp_path, capsys):
    p = tmp_path / "a.prop"
    p.write_text("(one & one) -o one\n")
    assert main(["parse", str(p), "--prop"]) == 0
    # minimal parenthesization: & binds tighter than -o
    assert capsys.readouterr().out.strip() == "one & one -o one"


def test_parse_prop_drops_header_and_comment_lines(tmp_path, capsys):
    p = tmp_path / "a.prop"
    p.write_text("-- c\none & one\n  -- type: one\n")
    assert main(["parse", str(p), "--prop"]) == 0
    assert capsys.readouterr().out.strip() == "one & one"
    p.write_text("-- c\n")
    assert main(["parse", str(p), "--prop"]) == 2
    assert capsys.readouterr().err.strip().endswith("contains no proposition")


def test_check_prints_the_type(tfile, capsys):
    assert main(["check", tfile]) == 0
    assert capsys.readouterr().out.strip() == "one"


def test_check_with_context_flag(tmp_path, capsys):
    p = tmp_path / "open.lsup"
    p.write_text("sum(w,scal(0,w))\n")
    assert main(["check", str(p), "--ctx", "w:one"]) == 0
    assert capsys.readouterr().out.strip() == "one"


def test_check_reads_headers(tmp_path, capsys):
    p = tmp_path / "annotated.lsup"
    p.write_text("-- a comment\n-- ctx: w:one\n-- type: one\nsum(w,scal(0,w))\n")
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "one"


def test_check_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.lsup"
    p.write_text("tens(x,x)\n")
    assert main(["check", str(p), "--ctx", "x:one"]) == 1
    assert "type error" in capsys.readouterr().err


def test_check_emit_derivation(tfile, capsys):
    assert main(["check", tfile, "--emit-derivation"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["rule"] == "sup_e"
    assert tree["type"] == "one"
    assert {"left", "right", "perm"} == set(tree["split"])
    assert len(tree["children"]) == 3


def test_run_normal_form(tmp_path, capsys):
    p = tmp_path / "r.lsup"
    p.write_text("app(lam(x,x),star(5))\n")
    assert main(["run", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "star(5)"


def test_run_rejects_forks(tfile, capsys):
    assert main(["run", tfile]) == 1
    assert "probabilistic fork" in capsys.readouterr().err


def test_distro_lines(ufile, capsys):
    assert main(["distro", ufile]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1/2\tstar(3/4)", "1/2\tstar(1/4)"]


def test_distro_json(ufile, capsys):
    assert main(["distro", ufile, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [{"weight": "1/2", "term": "star(3/4)"},
                    {"weight": "1/2", "term": "star(1/4)"}]


def test_distro_into_a_closed_pipe_ends_quietly(tmp_path):
    """supcalc distro f | head: the reader closes before the 1024 leaves
    of a 10-fork chain are written, and the command ends with exit code 1
    and nothing on stderr, not a BrokenPipeError traceback."""
    fork = "sup_elim{1/3,2/3}(sup(star(2),star(3)),x.x,y.y)"
    chain = tmp_path / "chain.lsup"
    chain.write_text(("unit_elim(" + fork + ",") * 9 + fork + ")" * 9)
    src = str(Path(sc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "supcalc.cli", "distro", str(chain)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # closed at once, long before the term is even parsed
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_denote_matrix(tfile, capsys):
    assert main(["denote", tfile]) == 0
    out = capsys.readouterr().out
    assert "shape: 1x1" in out and "[1/2]" in out


def test_denote_json(tfile, capsys):
    assert main(["denote", tfile, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"rows": 1, "cols": 1, "entries": ["1/2"]}


def test_soundness_report(ufile, capsys):
    assert main(["soundness", ufile]) == 0
    out = capsys.readouterr().out
    assert "sup_elim_left" in out and "whole-run identity: ok" in out


def test_soundness_types_and_denotes_through_one_checker(ufile, capsys,
                                                         monkeypatch):
    # the command holds the root's derivation across both checks, so each
    # judgment of it is derived once and each of its nodes denoted once;
    # the log holds terms, not derivations, so it keeps none alive
    from supcalc import checker, cli
    denote = importlib.import_module("supcalc.denote")
    judged, denoted, roots = [], [], []

    def logged(clause):
        def apply(self, ctx, t, want, rule):
            judged.append((t, ctx, want))
            return clause(self, ctx, t, want, rule)
        return apply

    def counted(clause):
        def apply(self, d, *args):
            denoted.append((d.term, d.ctx, d.prop))
            return clause(self, d, *args)
        return apply

    def loading(*args):
        loaded = load(*args)
        roots.append(loaded[0])
        return loaded

    load = cli.load_term_file
    monkeypatch.setattr(cli, "load_term_file", loading)
    monkeypatch.setattr(checker._Checker, "_CLAUSES", {
        cls: (rule, logged(clause))
        for cls, (rule, clause) in checker._Checker._CLAUSES.items()})
    monkeypatch.setattr(denote._Denoter, "_CLAUSES", {
        rule: (counted(clause), arg)
        for rule, (clause, arg) in denote._Denoter._CLAUSES.items()})
    assert main(["soundness", ufile]) == 0
    assert capsys.readouterr().out.endswith("whole-run identity: ok\n")
    run, ran_denoter = list(judged), list(denoted)
    # the root's judgments and nodes, from a derivation made afresh
    judged.clear()
    root = sc.typecheck((), roots[0])
    nodes, stack = [], [root]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1].children)
    assert len(judged) == len(nodes) == 6
    for u, ctx, want in judged:
        assert sum(v is u and c == ctx and w == want
                   for v, c, w in run) == 1, sc.print_term(u)
    for n in nodes:
        assert sum(u is n.term and c == n.ctx and p == n.prop
                   for u, c, p in ran_denoter) == 1, sc.print_term(n.term)


@pytest.mark.parametrize("command", ["check", "denote", "soundness"])
def test_an_ill_typed_file_is_a_type_error_in_every_checking_command(
        tmp_path, capsys, command):
    p = tmp_path / "bad.lsup"
    p.write_text("app(star(1),star(2))\n")
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("type error: star(1) has type one, which is not "
                            "a function type\n")


@pytest.mark.parametrize("command", ["denote", "soundness"])
def test_a_type_past_the_denote_budget_is_one_error_line(
        tmp_path, capsys, command):
    # (one & one) tensored 30 times has 2^30 dimensions
    a = " (*) ".join(["(one & one)"] * 30)
    p = tmp_path / "big.lsup"
    p.write_text(f"-- type: {a} -o {a}\nlam(x,x)\n")
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: rule lolli_i denotes a {2 ** 60}x1 matrix, more than the "
        f"{importlib.import_module('supcalc.denote').MAX_ENTRIES} entries "
        "a node may have\n")


# a scalar product of two 10^300 literals, past the largest float
_F64_OVERFLOW = "scal(1" + "0" * 300 + ",scal(1" + "0" * 300 + ",star(1)))\n"


@pytest.mark.parametrize("command", ["run", "distro", "denote", "soundness"])
def test_an_f64_overflow_is_one_error_line(tmp_path, capsys, command):
    p = tmp_path / "overflow.lsup"
    p.write_text(_F64_OVERFLOW)
    assert main([command, "--semiring", "f64", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: semiring f64 has no finite value for 1e+300 * 1e+300\n")


def test_encode_then_apply(tmp_path, capsys):
    assert main(["encode", "--matrix", "[[1,2],[3,4]]",
                 "--from", "one & one", "--to", "one & one"]) == 0
    termtext = capsys.readouterr().out.strip()
    p = tmp_path / "m.lsup"
    p.write_text("-- type: (one & one) -o (one & one)\n" + termtext + "\n")
    assert main(["apply", str(p), "--vec", "(5,6)"]) == 0
    assert capsys.readouterr().out.strip() == "(17,39)"


def test_apply_json(tmp_path, capsys):
    main(["encode", "--matrix", '[["1/2"]]', "--from", "one", "--to", "one"])
    termtext = capsys.readouterr().out.strip()
    p = tmp_path / "m.lsup"
    p.write_text("-- type: one -o one\n" + termtext + "\n")
    assert main(["apply", str(p), "--vec", "(4)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == ["2"]


def test_laws_table(capsys):
    assert main(["laws", "--trials", "3", "--max-dim", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 14


def test_laws_json(capsys):
    assert main(["laws", "--trials", "2", "--max-dim", "2", "--json",
                 "--seed", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["semiring"] == "qnn" and len(data["results"]) == 14
    assert all(r["ok"] for r in data["results"])


def test_semiring_flag(tfile, tmp_path, capsys):
    assert main(["check", tfile, "--semiring", "f64"]) == 0
    assert capsys.readouterr().out.strip() == "one"
    # booleans cannot spell 1/2
    assert main(["check", tfile, "--semiring", "bool"]) == 1
    assert "no scalar" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/path.lsup"]) == 2


def test_syntax_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.lsup"
    p.write_text("pair(star(1) star(2))\n")
    assert main(["check", str(p)]) == 1
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["parse"], ["parse", "--prop"], ["check"]])
def test_a_non_decimal_digit_is_one_syntax_error_line(tmp_path, capsys, argv):
    p = tmp_path / "digit.lsup"
    p.write_text("star(²)\n", encoding="utf-8")
    assert main([argv[0], str(p), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "syntax error: 1:6: unexpected character '²'\n"


@pytest.mark.parametrize("argv", [
    ["laws", "--max-dim", "0"],
    ["laws", "--trials", "0"],
])
def test_laws_rejects_counts_below_one(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.strip().count("\n") == 0
    assert "must be at least 1" in captured.err


@pytest.mark.parametrize("matrix, message", [
    ('[["a"]]', "bad scalar 'a'"),
    ("[[-1]]", "no negative scalar"),
    ("5", "JSON list of rows"),
])
def test_encode_rejects_bad_entries(matrix, message, capsys):
    assert main(["encode", "--matrix", matrix, "--from", "one",
                 "--to", "one"]) == 2
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and message in err


@pytest.mark.parametrize("command", ["parse", "run"])
def test_json_only_where_it_is_read(command, tfile, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, tfile, "--json"])
    assert info.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_seed_only_on_laws(tfile, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", tfile, "--seed", "3"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_apply_rejects_a_lone_from_or_to(flag, tmp_path, capsys):
    p = tmp_path / "f.lsup"
    p.write_text("-- type: one & one -o one & one\n"
                 "lam(x,pair(snd(x),fst(x)))\n")
    assert main(["apply", str(p), "--vec", "(1,2)", flag, "one"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().count("\n") == 0
    assert "both --from and --to" in captured.err


@pytest.mark.parametrize("flags", [
    [], ["--from", "one & one", "--to", "one & one"]])
def test_apply_checks_the_term_at_the_type_it_reads(flags, tmp_path, capsys):
    # the term has type one -o one, whether the type comes from the header
    # or from --from and --to
    p = tmp_path / "f.lsup"
    p.write_text(("" if flags else "-- type: (one & one) -o (one & one)\n")
                 + "lam{one}(x,scal(2,x))\n")
    assert main(["apply", str(p), "--vec", "(1,2)", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("type error: ")


@pytest.mark.parametrize("command", ["apply", "encode"])
def test_an_f64_literal_past_the_float_range_is_one_usage_error(
        command, tmp_path, capsys):
    p = tmp_path / "f.lsup"
    p.write_text("-- type: one -o one\nlam(x,x)\n")
    argv = (["apply", str(p), "--vec", "(1e400)"] if command == "apply"
            else ["encode", "--matrix", '[["1e400"]]', "--from", "one",
                  "--to", "one"])
    assert main([*argv, "--semiring", "f64"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "f64" in err


def _sum_chain(depth, nesting):
    """A depth-deep chain of sums of star(1), nested to the right or left."""
    n = depth - 1
    if nesting == "right":
        return "sum(star(1)," * n + "star(1)" + ")" * n
    return "sum(" * n + "star(1)" + ",star(1))" * n


@pytest.mark.parametrize("depth", [5000, 8000])
@pytest.mark.parametrize("nesting", ["right", "left"])
@pytest.mark.parametrize("command", ["check", "denote", "soundness"])
def test_a_term_too_deep_to_type_check_is_one_type_error_line(
        tmp_path, capsys, command, nesting, depth):
    # the parser reads such a chain, the checker's recursion cannot
    p = tmp_path / "deep.lsup"
    p.write_text(_sum_chain(depth, nesting) + "\n")
    assert main([command, str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "type error: term is nested too deeply\n"


def test_parse_and_check_refuse_a_chain_past_the_nesting_limit_alike(
        tmp_path, capsys):
    p = tmp_path / "deep.lsup"
    p.write_text(_sum_chain(15000, "right") + "\n")
    errors = []
    for command in ("parse", "check"):
        assert main([command, str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("syntax error: 1:")
    assert errors[0].endswith(": input is nested too deeply\n")


def _fill(template):
    return lambda parts: template.format(*parts)


# Term files drawn from the grammar, with characters near its tokens in
# the places of scalars, names and propositions: a superscript and a
# fullwidth digit, a vulgar fraction, a non-ASCII letter, a lone "-", "(o"
# without its ")"; whitespace and line breaks between the pieces; header
# lines; and any text at all.
_SCALARS = st.sampled_from(["0", "1", "7", "1/2", "3/0", "-1", "１", "²",
                            "1/²", "½", "1²", "-", ""])
_NAMES = st.sampled_from(["x", "y", "é", "x²", "_", "one", "²", "1", ""])
_GAPS = st.sampled_from(["", "", " ", "\n", "\t", "\r\n"])
_PROPS = st.recursive(
    st.sampled_from(["one", "top", "zero", "²", "(o", ""]),
    lambda p: st.tuples(p, st.sampled_from([" & ", " -o ", " (+) ", " (o) ",
                                            "(*)", "-", ""]), p).map("".join)
    | p.map("({})".format),
    max_leaves=6)


def _forms(t):
    return st.one_of(
        st.tuples(t, _GAPS, t).map(_fill("sum({},{}{})")),
        st.tuples(_SCALARS, t).map(_fill("scal({},{})")),
        st.tuples(_NAMES, t).map(_fill("lam({},{})")),
        st.tuples(_PROPS, _NAMES, t).map(_fill("lam{{{}}}({},{})")),
        st.tuples(t, _GAPS, t).map(_fill("app({},{}{})")),
        st.tuples(t, t).map(_fill("pair({},{})")),
        st.tuples(t, _NAMES, _NAMES, t).map(_fill("let_tens({},{},{},{})")),
        st.tuples(_SCALARS, _SCALARS, t, _NAMES, t, _NAMES, t).map(
            _fill("sup_elim{{{},{}}}({},{}.{},{}.{})")),
        t.map("fst({})".format),
    )


_TERMS = st.recursive(
    st.one_of(_NAMES, _SCALARS.map("star({})".format), st.just("unit")),
    _forms, max_leaves=8)
_FILES = st.one_of(
    st.tuples(st.sampled_from(["", "-- ctx: x:", "-- type: "]), _PROPS,
              _GAPS, _TERMS).map(lambda p: (p[0] + p[1] + "\n" if p[0] else "")
                                 + p[2] + p[3]),
    _PROPS,
    st.text(max_size=60),
)

_V2 = sc.parse_prop("one & one")
# apply's files: function terms with a declared type, annotated, or
# neither, and an open one (the other commands' files fuzz the parser)
_FUNCTIONS = st.sampled_from([
    "-- ctx: y:one\nlam{one}(x,unit_elim(y,x))\n",
    "-- type: one -o one\nlam(x,x)\n",
    "lam(x,x)\n",
    "lam{one & one}(x,pair(snd(x),fst(x)))\n",
    "-- type: one (+) one -o one (+) one\nlam(x,x)\n",
    "-- type: (one & one) -o (one & one)\n" + sc.print_term(
        sc.encode_matrix([[1, 2], [3, 4]], _V2, _V2)) + "\n",
])

# Option values for apply, encode and laws, each passed as --opt=value so
# that a drawn "-1" is never read as an option.
_VECS = st.one_of(
    st.lists(st.sampled_from(["1", "2", "1/2", "0"]) | _SCALARS,
             max_size=4).map(lambda xs: "(" + ",".join(xs) + ")"),
    st.sampled_from(["[1,2]", "[[1]]", "[", "5,6", "(1,,2)", ""]))
_DOMAINS = st.sampled_from(["one", "one & one", "(one & one) & one",
                           "top", "one (+) one"]) | _PROPS
_ENTRIES = st.one_of(st.integers(-2, 9), _SCALARS,
                     st.sampled_from([0.5, True, None, [1]]))
_MATRICES = st.one_of(
    st.lists(st.lists(_ENTRIES, max_size=3), max_size=3).map(json.dumps),
    st.sampled_from(["5", "[1,2]", "[[1,", "{}", ""]))
_COUNTS = st.integers(-1, 3)
_JSON = st.sampled_from([[], ["--json"]])


def _maybe(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


# One strategy per command, each drawing a file text and an argument list
# in which None stands for the file.
_RUNS = st.sampled_from([
    *(st.tuples(_FILES, st.just([argv[0], None, *argv[1:]]))
      for argv in (["parse"], ["parse", "--prop"], ["check"], ["run"],
                   ["distro"], ["denote"], ["soundness"])),
    st.tuples(_FUNCTIONS, st.tuples(
        _VECS, _maybe("--from", _DOMAINS), _maybe("--to", _DOMAINS),
        _JSON).map(
            lambda d: ["apply", None, f"--vec={d[0]}", *d[1], *d[2], *d[3]])),
    st.tuples(st.just(""), st.tuples(_MATRICES, _DOMAINS, _DOMAINS).map(
        lambda d: ["encode", f"--matrix={d[0]}", f"--from={d[1]}",
                   f"--to={d[2]}"])),
    st.tuples(st.just(""), st.tuples(_COUNTS, _COUNTS, st.integers(0, 9),
                                     _JSON).map(
        lambda d: ["laws", f"--trials={d[0]}", f"--max-dim={d[1]}",
                   f"--seed={d[2]}", *d[3]])),
]).flatmap(lambda run: run)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.lsup"


# 1400 examples give each of the ten commands about 140, each under one
# of the four semirings: the seven that read only a file, apply with
# drawn vectors and domains, encode with drawn matrices, and laws with
# drawn counts.
@settings(max_examples=1400, deadline=None)
@given(run=_RUNS, semiring=st.sampled_from(["qnn", "q", "bool", "f64"]))
def test_any_file_gets_an_exit_code_and_at_most_one_error_line(
        fuzz_file, run, semiring):
    text, argv = run
    fuzz_file.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(fuzz_file) if a is None else a for a in argv]
                    + [f"--semiring={semiring}"])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
