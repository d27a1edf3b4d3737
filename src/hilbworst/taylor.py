"""Two-step Taylor complex of the squared maximal ideal and its tangent data.

The ideal generated by all products x_i*x_j has one generator per unordered
pair (i, j); the free module on symbols e[i,j] surjects onto it via
``f_map``.  Its syzygies are the image of ``r_map`` on wedge symbols
e[i,j]^e[k,l]: the Koszul relation between the two generators, divided by
the variables the two pairs share.

Module elements (``FreeModElt``) carry polynomial coefficients on three
separate basis namespaces, which never mix:

    e[i,j]           module generators (e[i,j] = e[j,i])
    e[i,j]^e[k,l]    wedge symbols in the syzygy module
    e[i,j]v[k,l]     exterior-square symbols of the resolution used by the
                     derivation-algebra route (NOT the same thing: the map r
                     is not the Koszul differential there)

Both wedge namespaces are antisymmetric with self-wedge zero; symbols are
stored with the smaller pair first.

The homomorphisms from the ideal to its (n+1)-dimensional quotient algebra
are spanned by the maps sending the generator with index pair {i,j} to x_k
(``tangent_hom_*``); ranks of these spans give the tangent-space dimension
counts of the surrounding Hilbert scheme chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import pivot_keys
from .poly import ONE, Poly, PolyRing, mono_degree, mono_text, sum_products

E_NS, WEDGE_NS, CURLY_NS = "e", "w", "c"


def pair(a: int, b: int) -> tuple:
    return (a, b) if a <= b else (b, a)


def basis_pairs(n: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def wedge_symbol(ns: str, p: tuple, q: tuple):
    """Canonical (symbol, sign) of an antisymmetric pair; sign 0 if p == q."""
    if p == q:
        return None, 0
    if p < q:
        return (ns, p, q), 1
    return (ns, q, p), -1


def wedge_symbols(n: int, ns: str = WEDGE_NS) -> list:
    ps = basis_pairs(n)
    return [(ns, ps[a], ps[b]) for a in range(len(ps)) for b in range(a + 1, len(ps))]


def is_koszul(sym) -> bool:
    """True when the two index pairs of a wedge symbol are disjoint."""
    _, p, q = sym
    return not (set(p) & set(q))


def nonkoszul_triple(sym) -> tuple:
    """Oriented (i, j, k) with sym == e[i,j]^e[i,k]; requires a common index."""
    _, p, q = sym
    common = set(p) & set(q)
    if not common:
        raise ValueError(f"{sym} is a disjoint (Koszul) wedge")
    i = min(common)
    j = p[1] if p[0] == i else p[0]
    k = q[1] if q[0] == i else q[0]
    return i, j, k


class FreeModElt:
    """Free-module element: polynomial coefficients on basis symbols."""

    __slots__ = ("n", "_coef")

    def __init__(self, n: int, coef: dict | None = None):
        self.n = n
        self._coef = {s: c for s, c in (coef or {}).items() if not c.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self._coef

    def terms(self):
        for s in sorted(self._coef):
            yield s, self._coef[s]

    def __add__(self, other: "FreeModElt") -> "FreeModElt":
        if self.n != other.n:
            raise ValueError("ambient n mismatch")
        out = dict(self._coef)
        for s, c in other._coef.items():
            nc = out.get(s)
            nc = c if nc is None else nc + c
            if nc.is_zero:
                out.pop(s, None)
            else:
                out[s] = nc
        return FreeModElt(self.n, out)

    def __neg__(self) -> "FreeModElt":
        return FreeModElt(self.n, {s: -c for s, c in self._coef.items()})

    def __sub__(self, other: "FreeModElt") -> "FreeModElt":
        return self + (-other)

    def scale(self, factor) -> "FreeModElt":
        """Multiply every coefficient by a Poly or rational."""
        return FreeModElt(self.n, {s: c * factor for s, c in self._coef.items()})

    def apply_linear(self, image, zero, ns: str):
        """Module-linear extension of ``image`` (symbol -> Poly or
        FreeModElt) to this element: the sum of c * image(sym) over its
        terms.  ``zero`` is the zero of the target: a ``Poly`` zero makes
        the sum one ``sum_products``, a ``FreeModElt`` zero a module sum.
        Every symbol must lie in namespace ``ns``."""
        pairs = []
        for sym, c in self.terms():
            if sym[0] != ns:
                raise ValueError(f"expected {ns!r}-symbols, got {sym}")
            pairs.append((c, image(sym)))
        if isinstance(zero, Poly):
            return sum_products(self.n, [(1, c, v) for c, v in pairs])
        total = zero
        for c, value in pairs:
            total = total + value.scale(c)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, FreeModElt)
            and self.n == other.n
            and self._coef == other._coef
        )

    @staticmethod
    def _sym_text(sym) -> str:
        if sym[0] == E_NS:
            return f"e[{sym[1]},{sym[2]}]"
        (_, (a, b), (c, d)) = sym
        if sym[0] == WEDGE_NS:
            return f"e[{a},{b}]^e[{c},{d}]"
        return f"e[{a},{b}]v[{c},{d}]"

    def text(self) -> str:
        if not self._coef:
            return "0"
        pieces = []
        for sym, poly in self.terms():
            name = self._sym_text(sym)
            for m, c in poly.terms():
                body = mono_text(m, self.n)
                part = f"({c})"
                if body:
                    part += f" * {body}"
                pieces.append(f"{part} * {name}")
        return " + ".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"FreeModElt[n={self.n}]({self.text()})"


def apply_images(images: dict, elt: FreeModElt) -> Poly:
    """Module-linear application of a table with Poly values on the
    e-symbols."""
    return elt.apply_linear(images.__getitem__, PolyRing.get(elt.n).zero(), E_NS)


def zero_elt(n: int) -> FreeModElt:
    return FreeModElt(n, {})


def e_elt(n: int, i: int, j: int, coeff=1) -> FreeModElt:
    c = coeff if isinstance(coeff, Poly) else PolyRing.get(n).const(coeff)
    return FreeModElt(n, {(E_NS, *pair(i, j)): c})


# -- the complex ----------------------------------------------------------------


def pair_product(n: int, p: tuple) -> Poly:
    ring = PolyRing.get(n)
    return ring.x(p[0]) * ring.x(p[1])


def _pair_product_divided(n: int, p: tuple, common: set) -> Poly:
    """x_a * x_b with one factor removed for each index in `common`."""
    ring = PolyRing.get(n)
    factors = list(p)
    for a in common:
        factors.remove(a)
    out = ring.one()
    for a in factors:
        out = out * ring.x(a)
    return out


def f_map(elt: FreeModElt) -> Poly:
    """Module-linear map e[i,j] -> x_i * x_j."""
    n = elt.n
    return elt.apply_linear(
        lambda sym: pair_product(n, sym[1:]), PolyRing.get(n).zero(), E_NS
    )


@lru_cache(maxsize=None)
def r_symbol(n: int, p: tuple, q: tuple) -> FreeModElt:
    """Image of the canonical wedge e_p ^ e_q: the Koszul relation between
    the two generators divided by their common variables."""
    common = set(p) & set(q)
    coeff_p = -_pair_product_divided(n, q, common)
    coeff_q = _pair_product_divided(n, p, common)
    return e_elt(n, *p, coeff=coeff_p) + e_elt(n, *q, coeff=coeff_q)


def r_map(elt: FreeModElt) -> FreeModElt:
    n = elt.n
    return elt.apply_linear(lambda sym: r_symbol(n, *sym[1:]), zero_elt(n), WEDGE_NS)


def leibniz_value(n: int, sym, image) -> FreeModElt:
    """Value on e_p v e_q of the derivation given by ``image`` on the
    e-symbols, by the graded Leibniz rule: image(e_p) e_q - image(e_q) e_p
    (degree-0 values commute past degree -1 generators without sign).  For
    a disjoint wedge and the (perturbed) generator map as ``image``, this is
    also the trivial Koszul lift of the syzygy, at every order."""
    _, p, q = sym
    return e_elt(n, *q, coeff=image((E_NS,) + p)) - e_elt(
        n, *p, coeff=image((E_NS,) + q)
    )


def koszul_differential(elt: FreeModElt) -> FreeModElt:
    """Differential on the exterior-square namespace, the Leibniz
    extension of f: e_p v e_q -> f_p * e_q - f_q * e_p."""
    n = elt.n
    f = lambda e: pair_product(n, e[1:])
    return elt.apply_linear(
        lambda sym: leibniz_value(n, sym, f), zero_elt(n), CURLY_NS
    )


# -- the quotient algebra --------------------------------------------------------


def reduce_mod_squares(p: Poly) -> Poly:
    """Canonical representative in the quotient by all x_i*x_j: drop every
    term of x-degree >= 2.  Coefficients may involve t- or s-variables."""
    kept = {m: c for m, c in p.terms_dict().items() if mono_degree(m, p.n, "x") < 2}
    return Poly(p.n, kept)


@dataclass(frozen=True)
class QuotientElt:
    """Element of the (n+1)-dimensional quotient algebra, stored as its
    canonical representative in the span of 1, x_1, ..., x_n."""

    rep: Poly

    def __post_init__(self):
        if self.rep.degree("x") >= 2:
            raise ValueError("representative not reduced")

    @staticmethod
    def from_poly(p: Poly) -> "QuotientElt":
        return QuotientElt(reduce_mod_squares(p))

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def components(self) -> dict:
        """Coordinates in the basis {0: 1, b: x_b}."""
        out: dict = {}
        ring = PolyRing.get(self.rep.n)
        for m, c in self.rep.terms():
            if m == ONE:
                out[0] = c
            elif m[0] == -1 and m[1] < ring.bounds["x"][1]:
                out[ring.variables[m[1]][1]] = c
            else:
                raise ValueError("non-scalar coordinates requested")
        return out


# -- tangent homomorphisms --------------------------------------------------------


def tangent_hom_value(n: int, i: int, j: int, k: int, gen_pair: tuple) -> Poly:
    """Value of the hom sending the generator with index pair {i,j} to x_k:
    x_k on that generator, 0 on every other."""
    ring = PolyRing.get(n)
    for idx in (i, j, k):
        if not 1 <= idx <= n:
            raise ValueError(f"index {idx} out of range 1..{n}")
    if pair(*gen_pair) == pair(i, j):
        return ring.x(k)
    return ring.zero()


def tangent_hom_apply(n: int, ijk: tuple, elt: FreeModElt) -> QuotientElt:
    """Module-linear extension of a tangent hom, landing in the quotient."""
    i, j, k = ijk
    value = lambda sym: tangent_hom_value(n, i, j, k, sym[1:])
    return QuotientElt.from_poly(elt.apply_linear(value, PolyRing.get(n).zero(), E_NS))


def _hom_vector(n: int, ijk: tuple) -> dict:
    """A tangent hom as a vector over keys (generator pair, quotient coord)."""
    i, j, k = ijk
    vec: dict = {}
    for gp in basis_pairs(n):
        val = tangent_hom_apply(n, (i, j, k), e_elt(n, *gp))
        for b, c in val.components().items():
            vec[(gp, b)] = c
    return vec


def derivation_image_vector(n: int, i: int) -> dict:
    """Restriction of d/dx_i to the ideal generators, as the same kind of
    vector: the pair {i,j} goes to x_j for j != i and the pair {i,i} to
    2*x_i."""
    ring = PolyRing.get(n)
    vec: dict = {}
    for gp in basis_pairs(n):
        q = QuotientElt.from_poly(pair_product(n, gp).derivative(ring.x_var(i)))
        for b, c in q.components().items():
            vec[(gp, b)] = c
    return vec


def hom_basis_indices(n: int) -> list:
    return [
        (i, j, k)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        for k in range(1, n + 1)
    ]


@dataclass(frozen=True)
class TangentDims:
    hom_dim: int
    t1_dim: int


def tangent_dims(n: int) -> TangentDims:
    """Dimension of the hom space and of its quotient by the derivation
    images, computed by exact rank and cross-checked against the closed
    formulas n^2(n+1)/2 and (n+2)n(n-1)/2."""
    hom_rank = len(pivot_keys(_hom_vector(n, ijk) for ijk in hom_basis_indices(n)))
    der = (derivation_image_vector(n, i) for i in range(1, n + 1))
    t1_rank = hom_rank - len(pivot_keys(der))
    if hom_rank != n * n * (n + 1) // 2:
        raise AssertionError(f"hom rank {hom_rank} != n^2(n+1)/2 at n={n}")
    if t1_rank != (n + 2) * n * (n - 1) // 2:
        raise AssertionError(f"t1 rank {t1_rank} != (n+2)n(n-1)/2 at n={n}")
    return TangentDims(hom_dim=hom_rank, t1_dim=t1_rank)
