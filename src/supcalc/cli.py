"""Command-line front end.

Subcommands: parse, check, run, distro, denote, soundness, encode, apply,
laws.  Exit codes: 0 success, 1 check failure (or standard output closed
by its reader), 2 usage error.

Term files use the ``.lsup`` extension: one term per file, with optional
header lines ``-- ctx: x:A, y:B`` and ``-- type: A`` (plain ``--`` lines
are comments).  ``parse --prop`` reads a proposition file and drops the
same lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .denote import (check_global_soundness, check_step_soundness,
                     denote as _denote)
from . import matmodel as M
from . import rewrite as RW
from . import syntax as S
from . import checker as TC
from . import veccodec as VC
from .semiring import SEMIRINGS, LiteralError, format_scalar, get_semiring


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", code=2) from None


def _split_file(path: str) -> tuple[list[str], str]:
    """The text after "--" of each header or comment line of a file, and
    the text of its other lines."""
    headers, body_lines = [], []
    for line in _read_file(path).splitlines():
        stripped = line.strip()
        if stripped.startswith("--"):
            headers.append(stripped[2:].strip())
        else:
            body_lines.append(line)
    return headers, "\n".join(body_lines).strip()


def load_term_file(path: str, sr):
    """Parse a .lsup file into (term, ctx, declared_type)."""
    ctx, declared = (), None
    headers, text = _split_file(path)
    for rest in headers:
        if rest.startswith("ctx:"):
            ctx = S.parse_context(rest[4:], sr)
        elif rest.startswith("type:"):
            declared = S.parse_prop(rest[5:], sr)
    if not text:
        raise CliError(f"{path} contains no term", code=2)
    return S.parse_term(text, sr), ctx, declared


def _matrix_json(mat: M.Mat) -> dict:
    return {"rows": mat.rows, "cols": mat.cols,
            "entries": [format_scalar(v) for v in mat.entries]}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="supcalc",
        description="type checker, probabilistic rewriter and matrix "
                    "semantics for a linear proof calculus")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, summary, file=True, with_json=True):
        """A subcommand with --semiring, and --json where it is read."""
        p = sub.add_parser(name, help=summary)
        if file:
            p.add_argument("file")
        p.add_argument("--semiring", default="qnn", choices=sorted(SEMIRINGS),
                       help="scalar algebra (default qnn)")
        if with_json:
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
        return p

    p = command("parse", "parse a term file and echo it", with_json=False)
    p.add_argument("--prop", action="store_true",
                   help="parse the file as a proposition instead")

    p = command("check", "type-check a term file")
    p.add_argument("--ctx", default=None, help='context, e.g. "x:one, y:one&one"')
    p.add_argument("--type", dest="type_", default=None,
                   help="expected proposition")
    p.add_argument("--emit-derivation", action="store_true",
                   help="dump the derivation tree as JSON")

    command("run", "print the normal form", with_json=False)
    command("distro", "print the distribution of results")

    p = command("denote", "print the interpretation matrix")
    p.add_argument("--ctx", default=None)
    p.add_argument("--type", dest="type_", default=None)

    p = command("soundness", "per-step and whole-run soundness checks")
    p.add_argument("--type", dest="type_", default=None)

    p = command("encode", "encode a matrix as a function term", file=False,
                with_json=False)
    p.add_argument("--matrix", required=True,
                   help='JSON rows, e.g. "[[1,2],[3,4]]" or entries as strings')
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", dest="to", required=True)

    p = command("apply", "apply a function term file to a vector")
    p.add_argument("--vec", required=True, help='vector literal, e.g. "(5,6)"')
    p.add_argument("--from", dest="from_", default=None,
                   help="domain proposition (default: inferred from the term); "
                        "give both --from and --to, or neither")
    p.add_argument("--to", dest="to", default=None)

    p = command("laws", "randomized structural law suite", file=False)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    return ap


def _parse_scalar_text(text: str, sr):
    try:
        return sr.from_literal(Fraction(str(text).strip()))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad scalar {text!r}", code=2) from None
    except LiteralError as exc:
        raise CliError(str(exc), code=2) from None


def _cmd_parse(args, sr) -> int:
    if args.prop:
        text = _split_file(args.file)[1]
        if not text:
            raise CliError(f"{args.file} contains no proposition", code=2)
        print(S.print_prop(S.parse_prop(text, sr)))
        return 0
    term, _, _ = load_term_file(args.file, sr)
    print(S.print_term(term))
    return 0


def _derivation_json(d: TC.Derivation) -> dict:
    out = {
        "rule": d.rule,
        "ctx": [[x, S.print_prop(a)] for x, a in d.ctx],
        "term": S.print_term(d.term),
        "type": S.print_prop(d.prop),
        "split": None,
        "children": [_derivation_json(c) for c in d.children],
    }
    if d.split is not None:
        out["split"] = {"left": list(d.split.left),
                        "right": list(d.split.right),
                        "perm": list(d.split.perm)}
    return out


def _typecheck_file(args, sr):
    """The derivation of the file's term, with --ctx and --type overriding
    its headers; None, after printing the type error, if there is none."""
    term, ctx, declared = load_term_file(args.file, sr)
    if args.ctx is not None:
        ctx = S.parse_context(args.ctx, sr)
    expected = S.parse_prop(args.type_, sr) if args.type_ else declared
    try:
        return TC.typecheck(ctx, term, expected, sr)
    except TC.TypingError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return None


def _cmd_check(args, sr) -> int:
    d = _typecheck_file(args, sr)
    if d is None:
        return 1
    if args.emit_derivation:
        print(json.dumps(_derivation_json(d), indent=2))
    elif args.json:
        print(json.dumps({"type": S.print_prop(d.prop)}))
    else:
        print(S.print_prop(d.prop))
    return 0


def _cmd_run(args, sr) -> int:
    term, ctx, _ = load_term_file(args.file, sr)
    if ctx:
        raise CliError("run expects a closed term", code=2)
    try:
        print(S.print_term(RW.normalize(term, sr)))
    except RW.SupBranchEncountered as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_distro(args, sr) -> int:
    term, ctx, _ = load_term_file(args.file, sr)
    if ctx:
        raise CliError("distro expects a closed term", code=2)
    dist = RW.distribution(term, sr)
    if args.json:
        print(json.dumps([{"weight": format_scalar(w),
                           "term": S.print_term(v)} for w, v in dist.items]))
    else:
        for w, v in dist.items:
            print(f"{format_scalar(w)}\t{S.print_term(v)}")
    return 0


def _cmd_denote(args, sr) -> int:
    d = _typecheck_file(args, sr)
    if d is None:
        return 1
    mat = _denote(d, sr).matrix
    if args.json:
        print(json.dumps(_matrix_json(mat)))
    else:
        print(f"shape: {mat.rows}x{mat.cols}")
        for i in range(mat.rows):
            print("[" + " ".join(format_scalar(v) for v in mat.row(i)) + "]")
    return 0


def _cmd_soundness(args, sr) -> int:
    term, ctx, declared = load_term_file(args.file, sr)
    if ctx:
        raise CliError("soundness expects a closed term", code=2)
    expected = S.parse_prop(args.type_, sr) if args.type_ else declared
    # holding the root's derivation lets both checks reuse it, and the
    # matrix the first check leaves on it
    try:
        root = TC.typecheck((), term, expected, sr)
        report = check_step_soundness(term, sr, expected=expected)
    except TC.TypingError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 1
    global_ok = check_global_soundness(term, sr, expected)
    if args.json:
        print(json.dumps({
            "steps": [{"pos": list(c.pos), "rules": list(c.rules),
                       "ok": c.ok} for c in report.checks],
            "global": global_ok,
        }))
    else:
        for c in report.checks:
            status = "ok" if c.ok else "FAIL"
            print(f"step {'/'.join(map(str, c.pos)) or 'root'} "
                  f"[{', '.join(c.rules)}]: {status}")
        print(f"whole-run identity: {'ok' if global_ok else 'FAIL'}")
    return 0 if report.ok and global_ok else 1


def _cmd_encode(args, sr) -> int:
    rows = json.loads(args.matrix)
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise CliError("--matrix must be a JSON list of rows", code=2)
    mat = [[_parse_scalar_text(v, sr) for v in row] for row in rows]
    a = S.parse_prop(args.from_, sr)
    b = S.parse_prop(args.to, sr)
    print(S.print_term(VC.encode_matrix(mat, a, b)))
    return 0


def _parse_vec(text: str, sr):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if text.startswith("["):
        parts = json.loads("[" + text.strip("[]") + "]")
    else:
        parts = [p for p in text.split(",") if p.strip()]
    return [_parse_scalar_text(str(p), sr) for p in parts]


def _cmd_apply(args, sr) -> int:
    term, ctx, declared = load_term_file(args.file, sr)
    if ctx:
        raise CliError("apply expects a closed term", code=2)
    if bool(args.from_) != bool(args.to):
        raise CliError("apply needs both --from and --to, or neither", code=2)
    if args.from_:
        a = S.parse_prop(args.from_, sr)
        b = S.parse_prop(args.to, sr)
    else:
        expected = declared
        if expected is None:
            d = TC.typecheck((), term, None, sr)
            expected = d.prop
        if not isinstance(expected, S.Lollipop):
            raise CliError("apply needs a term of function type", code=2)
        a, b = expected.left, expected.right
    entries = _parse_vec(args.vec, sr)
    vec = VC.SVector(tuple(entries), a)
    result = VC.to_vector(S.App(term, VC.from_vector(vec)), b, sr)
    if args.json:
        print(json.dumps([format_scalar(v) for v in result.entries]))
    else:
        print("(" + ",".join(format_scalar(v) for v in result.entries) + ")")
    return 0


def _cmd_laws(args, sr) -> int:
    for flag, value in (("--trials", args.trials), ("--max-dim", args.max_dim)):
        if value < 1:
            raise CliError(f"{flag} must be at least 1, got {value}", code=2)
    report = M.check_laws(seed=args.seed, trials=args.trials,
                          max_dim=args.max_dim, semiring=sr)
    if args.json:
        print(json.dumps({
            "semiring": report.semiring,
            "seed": report.seed,
            "results": [{"law": r.name, "trials": r.trials, "ok": r.ok,
                         "failures": r.failures[:5]} for r in report.results],
        }))
    else:
        for r in report.results:
            print(f"{'PASS' if r.ok else 'FAIL'}  {r.name} (trials={r.trials})")
            for msg in r.failures[:3]:
                print(f"      {msg}")
    return 0 if report.ok else 1


_COMMANDS = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "run": _cmd_run,
    "distro": _cmd_distro,
    "denote": _cmd_denote,
    "soundness": _cmd_soundness,
    "encode": _cmd_encode,
    "apply": _cmd_apply,
    "laws": _cmd_laws,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        sr = get_semiring(args.semiring)
        code = _COMMANDS[args.command](args, sr)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output (``supcalc distro f | head``).
        # Point it at devnull, so that the flush at exit cannot fail again,
        # and end quietly with the exit code of an interrupted write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except S.ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    except (TC.TypingError, RW.ReductionError, VC.NotInV,
            VC.LengthMismatch, M.ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON literal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
