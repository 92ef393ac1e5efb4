"""Sparse matrices over a semiring, with the monoidal/biproduct structure.

Objects are plain dimensions (the free semimodule S^n); a morphism
S^cols -> S^rows is a matrix stored row by row: ``data[i]`` is a dict from
column to value holding the stored entries of row i, in ascending column
order.  A cell that is not stored reads as the semiring's zero.  A stored
cell holds exactly the value that the dense row-major model computes for
it, and the dense model leaves every other cell equal to zero:

* a matrix built from a dense list stores the entries that are not 0;
* a product or Kronecker product stores a cell when a pair of nonzero
  factors meets in it, and a sum the cells stored in either operand;
* a structural map stores only its ones (or its scalars).

So the dense view ``Mat.entries`` equals the dense model's entries, value
for value and type for type, on every semiring.  A stored value may still
be zero (a sum that cancels over q, a float within the f64 tolerance);
products skip it by ``Semiring.is_zero`` where the dense product skips a
zero cell.  Rows are never changed once a matrix holds them, so matrices
share rows.

There is one product loop: ``compose(g, f)`` is ``compose_lifted(g, 1,
f, 1)``, with nothing beside it.  Beside some structural maps sits a
kernel that computes a composite with the map without building it
(``curry_last``, ``eval_after``, ``reindex_cols``, ``compose_lifted``,
``row_block``, ``pad_rows``, ``scale``, ``mix``).  A kernel stores what
the composite stores, in the same order: it skips the entries ``compose``
skips, passes a factor through where ``compose`` or ``tensor_mat`` meets
the semiring's ``one``, and adds each sum's terms in the composite's order.

Index conventions are fixed once and shared by every structural map:

* tensor pairing is left major: idx(a (x) b) = idx(a) * dim(B) + idx(b);
* the internal hom hom(A,B) is flattened as idx(i,j) = i * dim(A) + j,
  with i the B (codomain) index and j the A (domain) index;
* with these conventions the associator and both unitors are literal
  identity matrices, and the braiding is a permutation matrix.

``check_laws`` replays the algebraic law families the structure must
satisfy on randomized instantiations and reports per-family results.  A
family only states its equations; ``check_laws`` alone compares them and
words their failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .semiring import QNN, Semiring, format_scalar


class ShapeMismatch(Exception):
    pass


class Mat:
    """A rows x cols matrix over a semiring; morphism S^cols -> S^rows.

    Built from a dense row-major list of entries; ``data`` holds its rows
    as described in the module docstring."""

    __slots__ = ("rows", "cols", "data", "sr")

    def __init__(self, rows: int, cols: int, entries, sr: Semiring):
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = [{j: v for j, v in enumerate(entries[i * cols:(i + 1) * cols])
                      if v}
                     for i in range(rows)]
        self.sr = sr

    @property
    def entries(self) -> list:
        """The dense row-major view, a fresh list."""
        return [v for i in range(self.rows) for v in self.row(i)]

    def at(self, i: int, j: int):
        return self.data[i].get(j, self.sr.zero)

    def row(self, i: int) -> list:
        out = [self.sr.zero] * self.cols
        for j, v in self.data[i].items():
            out[j] = v
        return out

    def equal(self, other: Mat) -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        eq, zero = self.sr.eq, self.sr.zero
        for a, b in zip(self.data, other.data):
            for j, v in a.items():
                if not eq(v, b.get(j, zero)):
                    return False
            for j, v in b.items():
                if j not in a and not eq(zero, v):
                    return False
        return True

    def __repr__(self) -> str:
        rows = ["[" + " ".join(format_scalar(v) for v in self.row(i)) + "]"
                for i in range(self.rows)]
        return f"Mat({self.rows}x{self.cols}: {'; '.join(rows)})"


def _mat(rows: int, cols: int, data: list[dict], sr: Semiring) -> Mat:
    """Wrap rows already in the stored form."""
    m = object.__new__(Mat)
    m.rows = rows
    m.cols = cols
    m.data = data
    m.sr = sr
    return m


def mat_from_rows(rows, sr: Semiring) -> Mat:
    r = len(rows)
    c = len(rows[0]) if rows else 0
    if any(len(row) != c for row in rows):
        raise ShapeMismatch("ragged rows")
    return Mat(r, c, [v for row in rows for v in row], sr)


def identity(n: int, sr: Semiring) -> Mat:
    one = sr.one
    return _mat(n, n, [{i: one} for i in range(n)], sr)


def zero_mat(dom: int, cod: int, sr: Semiring) -> Mat:
    """The zero map dom -> cod (cod x dom entries)."""
    return _mat(cod, dom, [{} for _ in range(cod)], sr)


def compose(g: Mat, f: Mat) -> Mat:
    """Matrix product g . f, the composite of f then g: exactly
    ``compose_lifted(g, 1, f, 1)``, with nothing beside it but a shape
    check that names ``compose``."""
    if g.cols != f.rows:
        raise ShapeMismatch(f"compose: {g.rows}x{g.cols} . {f.rows}x{f.cols}")
    return compose_lifted(g, 1, f, 1)


def add(f: Mat, g: Mat) -> Mat:
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch("add: shape mismatch")
    plus = f.sr.add
    out = []
    for a, b in zip(f.data, g.data):
        if a and b:
            r = dict(a)
            for j, v in b.items():
                r[j] = plus(r[j], v) if j in r else v
            if len(r) > len(a):
                r = {j: r[j] for j in sorted(r)}
            out.append(r)
        else:
            out.append(a or b)
    return _mat(f.rows, f.cols, out, f.sr)


# ---------------------------------------------------------------------------
# Monoidal structure


def tensor_obj(a: int, b: int) -> int:
    return a * b


def tensor_mat(f: Mat, g: Mat) -> Mat:
    """Kronecker product under the left-major pairing."""
    sr = f.sr
    mul, is_zero, one = sr.mul, sr.is_zero, sr.one
    gc = g.cols
    grows = [[(j, v) for j, v in r.items() if not is_zero(v)] for r in g.data]
    out = []
    for frow in f.data:
        fz = [(j * gc, v) for j, v in frow.items() if not is_zero(v)]
        for gz in grows:
            r = {}
            for base, fv in fz:
                for j, gv in gz:
                    r[base + j] = gv if fv is one else fv if gv is one else mul(fv, gv)
            out.append(r)
    return _mat(f.rows * g.rows, f.cols * gc, out, sr)


def perm_index(dims: list[int], perm: list[int]) -> list[int]:
    """The column of the one in each row of ``perm_mat(dims, perm)``: the
    source index that each target index reads."""
    if sorted(perm) != list(range(len(dims))):
        raise ShapeMismatch(f"not a permutation: {perm}")
    # the weight of each source factor's index in the source index
    stride = [0] * len(dims)
    s = 1
    for k in reversed(range(len(dims))):
        stride[k] = s
        s *= dims[k]
    # target factors in order, the first the most significant
    index = [0]
    for k in perm:
        w = stride[k]
        index = [i + x * w for i in index for x in range(dims[k])]
    return index


def perm_mat(dims: list[int], perm: list[int], sr: Semiring) -> Mat:
    """Permutation of tensor factors: source factors ``dims`` reordered so
    that target factor k is source factor ``perm[k]``.  Equals the matching
    composite of adjacent braidings."""
    one = sr.one
    data = [{src: one} for src in perm_index(dims, perm)]
    return _mat(len(data), len(data), data, sr)


def reindex_cols(m: Mat, index: list[int]) -> Mat:
    """m after the permutation whose row t has its one in column index[t]
    (see ``perm_index``): column t of m moves to column index[t], and a
    stored entry that ``is_zero`` is dropped.  Equals ``compose(m, P)``,
    rows in ascending column order."""
    if m.cols != len(index):
        raise ShapeMismatch(f"reindex_cols: {m.cols} columns, {len(index)} indices")
    is_zero = m.sr.is_zero
    out = []
    for r in m.data:
        moved = {index[t]: v for t, v in r.items() if not is_zero(v)}
        if len(moved) > 1:
            moved = {j: moved[j] for j in sorted(moved)}
        out.append(moved)
    return _mat(m.rows, len(index), out, m.sr)


def compose_lifted(u: Mat, left: int, t: Mat, right: int) -> Mat:
    """u . (Id_left (x) t (x) Id_right), without building the lifted map.

    Gustavson's row-by-row product: row i of the result accumulates, in
    ascending k, u[i,k] times row k of the lifted map, which is t's row x
    at columns (l*t.cols + c)*right + e for k = (l*t.rows + x)*right + e.
    A factor is skipped when it ``is_zero``, and a factor that is the
    semiring's own ``one`` passes the other through without a
    multiplication."""
    if u.cols != left * t.rows * right:
        raise ShapeMismatch(f"compose_lifted: {u.rows}x{u.cols} . "
                            f"{left}x{t.rows}x{t.cols}x{right}")
    sr = u.sr
    add, mul, is_zero, one = sr.add, sr.mul, sr.is_zero, sr.one
    block, width = t.rows * right, t.cols * right
    trows = t.data
    plain = left == 1 and right == 1  # compose: row k of t, no shift
    out = []
    for urow in u.data:
        acc: dict = {}
        merged = False  # a second row of t met the first: sort the keys
        for k, gv in urow.items():
            if is_zero(gv):
                continue
            merged = merged or bool(acc)
            if plain:
                x, base = k, 0
            else:
                l, rest = divmod(k, block)
                x, e = divmod(rest, right)
                base = l * width + e
            for c, fv in trows[x].items():
                if not is_zero(fv):
                    j = base + c * right
                    p = fv if gv is one else gv if fv is one else mul(gv, fv)
                    acc[j] = add(acc[j], p) if j in acc else p
        if merged:
            acc = {j: acc[j] for j in sorted(acc)}
        out.append(acc)
    return _mat(u.rows, left * width, out, sr)


def coherence(kind: str, objs: tuple[int, ...], sr: Semiring) -> Mat:
    """The monoidal coherence maps; under flat left-major indexing the
    (un)associators and unitors are identities and sigma is a permutation."""
    if kind == "sigma":
        a, b = objs
        return perm_mat([a, b], [1, 0], sr)
    if kind in ("alpha", "alpha_inv"):
        a, b, c = objs
        return identity(a * b * c, sr)
    if kind in ("lambda_u", "lambda_inv", "rho_u", "rho_inv"):
        (a,) = objs
        return identity(a, sr)
    raise ValueError(f"unknown coherence map {kind!r}")


# ---------------------------------------------------------------------------
# Biproducts


def biproduct_obj(a: int, b: int) -> int:
    return a + b


def biproduct_mat(f: Mat, g: Mat) -> Mat:
    """Block diagonal f (+) g."""
    fc = f.cols
    return _mat(f.rows + g.rows, fc + g.cols,
                f.data + [{j + fc: v for j, v in r.items()} for r in g.data],
                f.sr)


def inj1(a: int, b: int, sr: Semiring) -> Mat:
    return pair_mat(identity(a, sr), zero_mat(a, b, sr))


def inj2(a: int, b: int, sr: Semiring) -> Mat:
    return pair_mat(zero_mat(b, a, sr), identity(b, sr))


def proj1(a: int, b: int, sr: Semiring) -> Mat:
    return copair_mat(identity(a, sr), zero_mat(b, a, sr))


def proj2(a: int, b: int, sr: Semiring) -> Mat:
    return copair_mat(zero_mat(a, b, sr), identity(b, sr))


def row_block(m: Mat, lo: int, n: int) -> Mat:
    """Rows lo..lo+n of m, entries that ``is_zero`` left out: the
    projection after m, ``compose(proj1(n, b), m)`` at lo = 0 and
    ``compose(proj2(a, n), m)`` at lo = a."""
    if lo < 0 or lo + n > m.rows:
        raise ShapeMismatch(f"row_block: rows {lo}..{lo + n} of {m.rows}")
    is_zero = m.sr.is_zero
    return _mat(n, m.cols, [{j: v for j, v in r.items() if not is_zero(v)}
                            for r in m.data[lo:lo + n]], m.sr)


def pad_rows(m: Mat, above: int, below: int) -> Mat:
    """m below ``above`` and above ``below`` zero rows, entries that
    ``is_zero`` left out: the injection after m, ``compose(inj1(a, below),
    m)`` at above = 0 and ``compose(inj2(above, b), m)`` at below = 0."""
    is_zero = m.sr.is_zero
    data = [{} for _ in range(above)]
    data += [{j: v for j, v in r.items() if not is_zero(v)} for r in m.data]
    data += [{} for _ in range(below)]
    return _mat(above + m.rows + below, m.cols, data, m.sr)


def pair_mat(f: Mat, g: Mat) -> Mat:
    """<f, g>: row-stack of two maps out of a shared domain."""
    if f.cols != g.cols:
        raise ShapeMismatch("pair: domain mismatch")
    return _mat(f.rows + g.rows, f.cols, f.data + g.data, f.sr)


def copair_mat(f: Mat, g: Mat) -> Mat:
    """[f, g]: column-concatenation of two maps into a shared codomain."""
    if f.rows != g.rows:
        raise ShapeMismatch("copair: codomain mismatch")
    fc = f.cols
    data = []
    for a, b in zip(f.data, g.data):
        if b:
            a = dict(a)
            for j, v in b.items():
                a[j + fc] = v
        data.append(a)
    return _mat(f.rows, fc + g.cols, data, f.sr)


def diag(a: int, sr: Semiring) -> Mat:
    return pair_mat(identity(a, sr), identity(a, sr))


def codiag(a: int, sr: Semiring) -> Mat:
    return copair_mat(identity(a, sr), identity(a, sr))


def swap_plus(a: int, b: int, sr: Semiring) -> Mat:
    """The braiding of the biproduct: A (+) B -> B (+) A."""
    return pair_mat(proj2(a, b, sr), proj1(a, b, sr))


# ---------------------------------------------------------------------------
# Internal hom


def hom_obj(a: int, b: int) -> int:
    return a * b


def hom_mat(a: int, f: Mat) -> Mat:
    """hom(A, f) for f : B -> B', i.e. postcomposition on represented maps.

    With idx(i,j) = i*dim(A)+j this is exactly f (x) Id_A."""
    return tensor_mat(f, identity(a, f.sr))


def eval_map(a: int, b: int, sr: Semiring) -> Mat:
    """hom(A,B) (x) A -> B, sending e_(i,j) (x) e_k to [j=k] e_i."""
    one = sr.one
    return _mat(b, a * b * a,
                [{(i * a + j) * a + j: one for j in range(a)} for i in range(b)],
                sr)


def unit_map(g: int, a: int, sr: Semiring) -> Mat:
    """G -> hom(A, G (x) A), sending e_g to sum_a e_(g*dimA+a, a)."""
    one = sr.one
    data = [{} for _ in range(g * a * a)]
    for gi in range(g):
        for ai in range(a):
            data[(gi * a + ai) * a + ai] = {gi: one}
    return _mat(g * a * a, g, data, sr)


def curry_last(f: Mat, g: int, a: int) -> Mat:
    """Transpose f : G (x) A -> B over its last factor to G -> hom(A, B),
    entries that ``is_zero`` left out: out[i*a + j][k] = f[i][k*a + j].
    Equals ``compose(hom_mat(a, f), unit_map(g, a, sr))``."""
    if f.cols != g * a:
        raise ShapeMismatch(f"curry_last: expected {g * a} columns, got {f.cols}")
    is_zero = f.sr.is_zero
    data = [{} for _ in range(f.rows * a)]
    for i, r in enumerate(f.data):
        for col, v in r.items():
            if not is_zero(v):
                k, j = divmod(col, a)
                data[i * a + j][k] = v
    return _mat(f.rows * a, g, data, f.sr)


def eval_after(a: int, b: int, f: Mat, x: Mat,
               index: list[int] | None = None) -> Mat:
    """``eval_map(a, b) . (f (x) x)`` for f : G -> hom(A, B) and
    x : H -> A, without building either map: out[i][l*H + r] sums
    f[i*a + j][l] * x[j][r] over ascending j.  With ``index``, the
    Kronecker product's columns are first moved as by ``reindex_cols``.

    As in the composite, a factor that ``is_zero`` is skipped, a factor
    that is ``one`` passes the other through, a product that ``is_zero``
    is skipped (the Kronecker product stores it, then the evaluation skips
    it), and each sum accumulates in ascending j."""
    if f.rows != b * a or x.rows != a:
        raise ShapeMismatch(f"eval_after: {f.rows}x{f.cols} (x) "
                            f"{x.rows}x{x.cols} at A={a}, B={b}")
    sr = f.sr
    add, mul, is_zero, one = sr.add, sr.mul, sr.is_zero, sr.one
    h = x.cols
    xrows = [[(r, v) for r, v in row.items() if not is_zero(v)]
             for row in x.data]
    frows = f.data
    out = []
    for i in range(b):
        acc: dict = {}
        merged = False
        for j in range(a):
            merged = merged or bool(acc)
            xz = xrows[j]
            for l, fv in frows[i * a + j].items():
                if is_zero(fv):
                    continue
                base = l * h
                for r, xv in xz:
                    if fv is one:
                        p = xv
                    elif xv is one:
                        p = fv
                    else:
                        p = mul(fv, xv)
                        if is_zero(p):
                            continue
                    col = base + r if index is None else index[base + r]
                    acc[col] = add(acc[col], p) if col in acc else p
        if len(acc) > 1 and (merged or index is not None):
            acc = {c: acc[c] for c in sorted(acc)}
        out.append(acc)
    return _mat(b, f.cols * h, out, sr)


# ---------------------------------------------------------------------------
# Scalar action, weighted codiagonal, distribution maps


def scalar_map(s, a: int, sr: Semiring) -> Mat:
    """Multiplication by s on S^a; equals rho . (Id (x) embed(s)) . rho^-1."""
    if a == 1:  # embed(s), made once per scalar literal by denote
        return _mat(1, 1, [{0: s}], sr)
    return _mat(a, a, [{i: s} for i in range(a)], sr)


def weighted_codiag(w: tuple, a: int, sr: Semiring) -> Mat:
    """[p^, q^] : A (+) A -> A, the weighted mix of two branches; w is the
    pair (p, q)."""
    p, q = w
    return copair_mat(scalar_map(p, a, sr), scalar_map(q, a, sr))


def _scaled(s, row: dict, sr: Semiring) -> dict:
    """s times a stored row, entries that ``is_zero`` left out, as a
    product by ``scalar_map`` multiplies it."""
    mul, is_zero, one = sr.mul, sr.is_zero, sr.one
    return {j: v if s is one else s if v is one else mul(s, v)
            for j, v in row.items() if not is_zero(v)}


def scale(s, m: Mat) -> Mat:
    """s times m; equals ``compose(scalar_map(s, m.rows, sr), m)``."""
    sr = m.sr
    if sr.is_zero(s):
        return zero_mat(m.cols, m.rows, sr)
    return _mat(m.rows, m.cols, [_scaled(s, r, sr) for r in m.data], sr)


def mix(w: tuple, f: Mat, g: Mat) -> Mat:
    """p.f + q.g for w = (p, q); equals ``compose(weighted_codiag(w,
    f.rows, sr), pair_mat(f, g))``: a weight that ``is_zero`` drops its
    branch, and each sum adds q's term to p's."""
    if (f.rows, f.cols) != (g.rows, g.cols):
        raise ShapeMismatch(f"mix: {f.rows}x{f.cols} and {g.rows}x{g.cols}")
    sr = f.sr
    p, q = w
    add, mul, is_zero, one = sr.add, sr.mul, sr.is_zero, sr.one
    with_p, with_q = not is_zero(p), not is_zero(q)
    out = []
    for a, b in zip(f.data, g.data):
        acc = _scaled(p, a, sr) if with_p else {}
        if with_q:
            merged = bool(acc)
            for j, v in b.items():
                if not is_zero(v):
                    t = v if q is one else q if v is one else mul(q, v)
                    acc[j] = add(acc[j], t) if j in acc else t
            if merged:
                acc = {j: acc[j] for j in sorted(acc)}
        out.append(acc)
    return _mat(f.rows, f.cols, out, sr)


def distribute(kind: str, objs: tuple[int, ...], sr: Semiring) -> Mat:
    """The distribution maps d, gamma (with inverses) and the rebalancing
    map delta = (Id (+) sigma (+) Id) . (Id (+) Delta)."""
    a, b, c = objs
    if kind == "d":
        return pair_mat(tensor_mat(proj1(a, b, sr), identity(c, sr)),
                        tensor_mat(proj2(a, b, sr), identity(c, sr)))
    if kind == "d_inv":
        return copair_mat(tensor_mat(inj1(a, b, sr), identity(c, sr)),
                          tensor_mat(inj2(a, b, sr), identity(c, sr)))
    if kind == "gamma":
        return pair_mat(hom_mat(a, proj1(b, c, sr)),
                        hom_mat(a, proj2(b, c, sr)))
    if kind == "gamma_inv":
        return copair_mat(hom_mat(a, inj1(b, c, sr)),
                          hom_mat(a, inj2(b, c, sr)))
    if kind == "delta":
        first = biproduct_mat(identity(a + b, sr), diag(c, sr))
        second = biproduct_mat(identity(a, sr),
                               biproduct_mat(swap_plus(b, c, sr),
                                             identity(c, sr)))
        return compose(second, first)
    raise ValueError(f"unknown distribution map {kind!r}")


# ---------------------------------------------------------------------------
# Randomized law checking


@dataclass
class LawResult:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class LawReport:
    semiring: str
    seed: int
    results: list[LawResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def _rand_mat(rng, rows, cols, sr) -> Mat:
    pool = sr.test_pool
    return Mat(rows, cols, [rng.choice(pool) for _ in range(rows * cols)], sr)


def _dims(rng, max_dim, n=1):
    return [rng.randint(1, max_dim) for _ in range(n)]


def _law_monoidal_coherence(rng, sr, max_dim):
    a, b, c = _dims(rng, max_dim, 3)
    # symmetry is an involution
    sig = coherence("sigma", (a, b), sr)
    sig_back = coherence("sigma", (b, a), sr)
    yield "sigma involution", compose(sig_back, sig), identity(a * b, sr)
    # naturality of sigma
    f = _rand_mat(rng, b, a, sr)
    g = _rand_mat(rng, c, b, sr)
    yield ("sigma naturality",
           compose(coherence("sigma", (b, c), sr), tensor_mat(f, g)),
           compose(tensor_mat(g, f), coherence("sigma", (a, b), sr)))
    al = coherence("alpha", (a, b, c), sr)
    yield ("alpha inverse", compose(coherence("alpha_inv", (a, b, c), sr), al),
           identity(a * b * c, sr))
    # pentagon on (a, b, c, d); flat indexing makes the associators
    # identities, but the equation is still stated and evaluated
    d4 = rng.randint(1, max_dim)
    lhs = compose(coherence("alpha", (a * b, c, d4), sr),
                  coherence("alpha", (a, b, c * d4), sr))
    rhs = compose(
        tensor_mat(coherence("alpha", (a, b, c), sr), identity(d4, sr)),
        compose(coherence("alpha", (a, b * c, d4), sr),
                tensor_mat(identity(a, sr), coherence("alpha", (b, c, d4), sr))))
    yield "pentagon", lhs, rhs
    # triangle: (rho (x) Id) . alpha = Id (x) lambda on A (x) (I (x) B)
    lhs = compose(tensor_mat(coherence("rho_u", (a,), sr), identity(b, sr)),
                  coherence("alpha", (a, 1, b), sr))
    rhs = tensor_mat(identity(a, sr), coherence("lambda_u", (b,), sr))
    yield "triangle", lhs, rhs


def _law_biproduct(rng, sr, max_dim):
    a, b, c = _dims(rng, max_dim, 3)
    yield "proj1.inj1", compose(proj1(a, b, sr), inj1(a, b, sr)), identity(a, sr)
    yield "proj2.inj2", compose(proj2(a, b, sr), inj2(a, b, sr)), identity(b, sr)
    yield "proj2.inj1", compose(proj2(a, b, sr), inj1(a, b, sr)), zero_mat(a, b, sr)
    yield "proj1.inj2", compose(proj1(a, b, sr), inj2(a, b, sr)), zero_mat(b, a, sr)
    f = _rand_mat(rng, a, c, sr)
    g = _rand_mat(rng, b, c, sr)
    yield "proj1.pair", compose(proj1(a, b, sr), pair_mat(f, g)), f
    yield "proj2.pair", compose(proj2(a, b, sr), pair_mat(f, g)), g
    h = _rand_mat(rng, c, a, sr)
    k = _rand_mat(rng, c, b, sr)
    yield "copair.inj1", compose(copair_mat(h, k), inj1(a, b, sr)), h
    yield "copair.inj2", compose(copair_mat(h, k), inj2(a, b, sr)), k
    # inj1.proj1 + inj2.proj2 = Id
    lhs = add(compose(inj1(a, b, sr), proj1(a, b, sr)),
              compose(inj2(a, b, sr), proj2(a, b, sr)))
    yield "resolution of identity", lhs, identity(a + b, sr)
    # sum of maps through the biproduct agrees with entrywise addition
    f2 = _rand_mat(rng, a, c, sr)
    g2 = _rand_mat(rng, a, c, sr)
    yield ("sum via biproduct",
           compose(codiag(a, sr), compose(biproduct_mat(f2, g2), diag(c, sr))),
           add(f2, g2))


def _law_distrib_iso(rng, sr, max_dim):
    a, b, c = _dims(rng, max_dim, 3)
    d = distribute("d", (a, b, c), sr)
    d_inv = distribute("d_inv", (a, b, c), sr)
    yield "d.d_inv", compose(d, d_inv), identity(a * c + b * c, sr)
    yield "d_inv.d", compose(d_inv, d), identity((a + b) * c, sr)
    g = distribute("gamma", (a, b, c), sr)
    g_inv = distribute("gamma_inv", (a, b, c), sr)
    yield "gamma.gamma_inv", compose(g, g_inv), identity(a * b + a * c, sr)
    yield "gamma_inv.gamma", compose(g_inv, g), identity(a * (b + c), sr)
    # naturality of d in the first two arguments
    f1 = _rand_mat(rng, a, a, sr)
    f2 = _rand_mat(rng, b, b, sr)
    f3 = _rand_mat(rng, c, c, sr)
    lhs = compose(biproduct_mat(tensor_mat(f1, f3), tensor_mat(f2, f3)), d)
    rhs = compose(d, tensor_mat(biproduct_mat(f1, f2), f3))
    yield "d naturality", lhs, rhs


def _law_scalar_naturality(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    s = rng.choice(sr.test_pool)
    f = _rand_mat(rng, b, a, sr)
    yield ("scalar map naturality", compose(scalar_map(s, b, sr), f),
           compose(f, scalar_map(s, a, sr)))


def _law_scalar_props(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    s = rng.choice(sr.test_pool)
    yield "s^ at unit", scalar_map(s, 1, sr), Mat(1, 1, [s], sr)
    yield ("s^ on tensor", scalar_map(s, a * b, sr),
           tensor_mat(scalar_map(s, a, sr), identity(b, sr)))
    yield ("s^ on biproduct", scalar_map(s, a + b, sr),
           biproduct_mat(scalar_map(s, a, sr), scalar_map(s, b, sr)))


def _law_hom_scalar(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    s = rng.choice(sr.test_pool)
    yield ("hom(A, s^) = s^ on hom", hom_mat(a, scalar_map(s, b, sr)),
           scalar_map(s, hom_obj(a, b), sr))


def _law_wcodiag_naturality(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    p, q = rng.choice(sr.weight_pool)
    f = _rand_mat(rng, b, a, sr)
    yield ("weighted codiagonal naturality",
           compose(f, weighted_codiag((p, q), a, sr)),
           compose(weighted_codiag((p, q), b, sr), biproduct_mat(f, f)))


def _law_wcodiag_distribution(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    p, q = rng.choice(sr.weight_pool)
    d = distribute("d", (a, a, b), sr)
    yield ("wcodiag . d = wcodiag (x) Id",
           compose(weighted_codiag((p, q), a * b, sr), d),
           tensor_mat(weighted_codiag((p, q), a, sr), identity(b, sr)))
    g = distribute("gamma", (a, b, b), sr)
    yield ("wcodiag . gamma = hom(A, wcodiag)",
           compose(weighted_codiag((p, q), a * b, sr), g),
           hom_mat(a, weighted_codiag((p, q), b, sr)))
    yield ("codiag . d = codiag (x) Id", compose(codiag(a * b, sr), d),
           tensor_mat(codiag(a, sr), identity(b, sr)))
    yield ("codiag . gamma = hom(A, codiag)", compose(codiag(a * b, sr), g),
           hom_mat(a, codiag(b, sr)))


def _law_diag_distribution(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    d_inv = distribute("d_inv", (a, a, b), sr)
    yield ("d_inv . diag = diag (x) Id", compose(d_inv, diag(a * b, sr)),
           tensor_mat(diag(a, sr), identity(b, sr)))
    g_inv = distribute("gamma_inv", (a, b, b), sr)
    yield ("gamma_inv . diag = hom(A, diag)", compose(g_inv, diag(a * b, sr)),
           hom_mat(a, diag(b, sr)))


def _law_codiag_diag_extension(rng, sr, max_dim):
    (a,) = _dims(rng, max_dim, 1)
    p, q = rng.choice(sr.weight_pool)
    mid = biproduct_mat(identity(a, sr),
                        biproduct_mat(swap_plus(a, a, sr), identity(a, sr)))
    w = weighted_codiag((p, q), a, sr)
    yield ("(w (+) w).(Id (+) sigma (+) Id) = w on A(+)A",
           compose(biproduct_mat(w, w), mid), weighted_codiag((p, q), 2 * a, sr))
    yield ("(Id (+) sigma (+) Id).(Delta (+) Delta) = Delta on A(+)A",
           compose(mid, biproduct_mat(diag(a, sr), diag(a, sr))),
           diag(2 * a, sr))


def _law_wcodiag_left_inverse(rng, sr, max_dim):
    """Ends with the suite's one inequality: its message is the family's
    return value."""
    (a,) = _dims(rng, max_dim, 1)
    for p, q in sr.weight_pool:
        yield (f"wcodiag({p},{q}) . diag",
               compose(weighted_codiag((p, q), a, sr), diag(a, sr)),
               identity(a, sr))
    p, q = sr.non_weight_pair
    got = compose(weighted_codiag((p, q), a, sr), diag(a, sr))
    if got.equal(identity(a, sr)):
        return f"wcodiag({p},{q}).diag = Id although p+q != 1"


def _law_wcodiag_delta(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    p, q = rng.choice(sr.weight_pool)
    delta = distribute("delta", (a, a, b), sr)
    yield ("wcodiag . delta = wcodiag (+) Id",
           compose(weighted_codiag((p, q), a + b, sr), delta),
           biproduct_mat(weighted_codiag((p, q), a, sr), identity(b, sr)))


def _law_delta_diag(rng, sr, max_dim):
    a, b = _dims(rng, max_dim, 2)
    delta = distribute("delta", (a, a, b), sr)
    yield ("delta . (diag (+) Id) = diag",
           compose(delta, biproduct_mat(diag(a, sr), identity(b, sr))),
           diag(a + b, sr))


def _law_iterated_wcodiag(rng, sr, max_dim):
    (a,) = _dims(rng, max_dim, 1)
    p, q = rng.choice(sr.weight_pool)
    p2, q2 = rng.choice(sr.weight_pool)
    w = weighted_codiag((p, q), a, sr)
    w2 = weighted_codiag((p2, q2), a, sr)
    lhs = compose(w2, biproduct_mat(w, identity(a, sr)))
    rhs = compose(w, compose(biproduct_mat(w2, w2),
                             distribute("delta", (a, a, a), sr)))
    yield "iterated weighted codiagonals", lhs, rhs


LAW_FAMILIES = [
    ("monoidal-coherence", _law_monoidal_coherence),
    ("biproduct-equations", _law_biproduct),
    ("distribution-iso", _law_distrib_iso),
    ("scalar-map-naturality", _law_scalar_naturality),
    ("scalar-map-props", _law_scalar_props),
    ("hom-scalar-commutes", _law_hom_scalar),
    ("weighted-codiag-naturality", _law_wcodiag_naturality),
    ("weighted-codiag-distribution", _law_wcodiag_distribution),
    ("diag-distribution", _law_diag_distribution),
    ("codiag-diag-extension", _law_codiag_diag_extension),
    ("weighted-codiag-left-inverse", _law_wcodiag_left_inverse),
    ("weighted-codiag-delta", _law_wcodiag_delta),
    ("delta-diag", _law_delta_diag),
    ("iterated-weighted-codiag", _law_iterated_wcodiag),
]


def check_laws(seed: int = 0, trials: int = 50, max_dim: int = 4,
               semiring: Semiring = QNN) -> LawReport:
    """Run every law family on `trials` random instantiations each.

    A family is a generator of equations ``(name, lhs, rhs)``, drawn from
    its own ``rng`` in the order it yields them; each equation that does not
    hold is reported here, as ``name: lhs != rhs``.  A family may end by
    returning one more failure message (the left-inverse family's
    inequality)."""
    results = []
    for name, fn in LAW_FAMILIES:
        rng = random.Random(f"{seed}:{name}")  # str seeding is process-stable
        failures = []
        for _ in range(trials):
            laws = fn(rng, semiring, max_dim)
            while True:
                try:
                    law, lhs, rhs = next(laws)
                except StopIteration as end:
                    if end.value:
                        failures.append(end.value)
                    break
                if not lhs.equal(rhs):
                    failures.append(f"{law}: {lhs!r} != {rhs!r}")
        results.append(LawResult(name, trials, failures))
    return LawReport(semiring=semiring.name, seed=seed, results=results)
