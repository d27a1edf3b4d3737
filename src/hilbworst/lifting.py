"""Order-by-order lifting of the generators and syzygies of the squared
maximal ideal, leading to the universal family over the Hilbert scheme chart.

The zeroth-order data is the two-step complex from :mod:`.taylor`.  The
first-order perturbation sends e[l,m] to the generic linear form
sum_lam t(l,m,lam) x_lam; the syzygies lift at first order exactly
(``first_order_residual``).  At second order the generators acquire
quadratic tails c[l,m] in the deformation parameters; comparing coefficients
of the x-variables produces the defining constraint system of the chart
(``second_order_obstruction``) together with candidate values of the tails.
The tails themselves are the order-2 table of ``build_f``, in the lam-free
symmetric form sum_k q(l,m,k|k)/(n-1).

With those tails the perturbed composite vanishes modulo the constraint
ideal: its t-degree-2 part lies in the degree-2 span, and n-1 times its
t-degree-3 part is the cubic syzygy (``syzygy_cubic``), which has an
explicit linear-form certificate.  ``flatness_residual`` records both: it
asks ``membership`` one cubic per S_n orbit of the triples (i, j, k) and
transports that certificate to the others, and each certificate is
re-verified by exact multiplication (``Membership.verify``) against its
own cubic before it counts.
Disjoint-pair wedges lift trivially to all orders, by ``leibniz_value`` of
the perturbed generator map; ``koszul_lift_failures`` checks that lift by its
form, which makes the composite vanish by commutativity alone.

``family_at`` evaluates the universal family at a rational point in
integers, from a form of the family compiled once per n; the oracle reads
the fiber algebra's table and the fiber itself from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ideal import (
    IdealPresentation,
    certified,
    deduplicated,
    diagonal_sum,
    ideal_generators,
    identity,
    membership,
    orbit_memberships,
    scaled_certificate,
    set_diagonal_zero,
)
from .poly import ONE, Poly, PolyRing, sum_products
from .taylor import (
    E_NS,
    WEDGE_NS,
    FreeModElt,
    apply_images,
    basis_pairs,
    e_elt,
    is_koszul,
    leibniz_value,
    nonkoszul_triple,
    pair,
    pair_product,
    r_symbol,
    wedge_symbol,
    wedge_symbols,
    zero_elt,
)


# -- generator perturbations -------------------------------------------------


def f1_image(n: int, l: int, m: int) -> Poly:
    """First-order image of e[l,m]: sum over lam of t(l,m,lam) x_lam."""
    ring = PolyRing.get(n)
    items = [(1, ring.t(l, m, lam), ring.x(lam)) for lam in range(1, n + 1)]
    return sum_products(n, items)


@lru_cache(maxsize=None)
def build_f(n: int) -> tuple:
    """Full perturbed generator map as its order tables (f0, f1, f2): order
    d maps every e[i,j] to its t-degree-d piece, which for d = 2 is the
    quadratic tail sum_k q(i,j,k|k)/(n-1)."""
    if n < 3:
        raise ValueError(f"ambient n must be >= 3, got {n}")
    f0 = {(E_NS,) + p: pair_product(n, p) for p in basis_pairs(n)}
    f1 = {(E_NS,) + p: f1_image(n, *p) for p in basis_pairs(n)}
    f2 = {
        (E_NS,) + p: diagonal_sum(n, *p) * Fraction(1, n - 1) for p in basis_pairs(n)
    }
    return f0, f1, f2


# -- syzygy perturbations ------------------------------------------------------


def r1_oriented(n: int, i: int, j: int, k: int) -> FreeModElt:
    """First-order lift on the oriented wedge e[i,j]^e[i,k], j != k:
    sum over lam of t(i,j,lam) e[k,lam] - t(i,k,lam) e[j,lam]."""
    if j == k:
        raise ValueError("oriented wedge requires j != k")
    ring = PolyRing.get(n)
    total = zero_elt(n)
    for lam in range(1, n + 1):
        total = total + e_elt(n, k, lam, coeff=ring.t(i, j, lam))
        total = total - e_elt(n, j, lam, coeff=ring.t(i, k, lam))
    return total


@lru_cache(maxsize=None)
def build_r(n: int) -> tuple:
    """Perturbed syzygy map as its order tables (r0, r1) on the wedge
    symbols: order 0 is the divided Koszul relation, order 1 the trivial
    Koszul lift (``leibniz_value`` of f1) on a disjoint wedge and
    ``r1_oriented`` on a shared-index one.  No higher orders exist for
    degree reasons."""
    f1 = build_f(n)[1]
    r0 = {}
    r1 = {}
    for sym in wedge_symbols(n):
        r0[sym] = r_symbol(n, sym[1], sym[2])
        if is_koszul(sym):
            r1[sym] = leibniz_value(n, sym, f1.__getitem__)
        else:
            r1[sym] = r1_oriented(n, *nonkoszul_triple(sym))
    return r0, r1


# -- residual computations -------------------------------------------------------


def first_order_residual(n: int) -> dict:
    """f0.r1 + f1.r0 on every wedge symbol; contract: identically zero."""
    f0, f1, _ = build_f(n)
    r0, r1 = build_r(n)
    return {
        sym: apply_images(f0, r1[sym]) + apply_images(f1, r0[sym])
        for sym in wedge_symbols(n)
    }


@dataclass(frozen=True)
class ObstructionSystem:
    """Constraints and candidate tails produced by the second-order lifting
    step; the tails themselves are the order-2 table of ``build_f``."""

    equations: IdealPresentation
    candidates: dict  # pair -> tuple of (label, candidate Poly)


def coefficient_system(n: int, wedge_value: dict, flavor: str, sign: int):
    """Compare x-coefficients of ``wedge_value`` on every shared-index wedge
    e[i,j]^e[i,k], j < k: the value must equal
    sign * (x_k c(e_ij) - x_j c(e_ik)) for one correction c per pair.

    Coefficients of x_l with l outside {j, k} must vanish outright; the two
    others are candidate values of c, and equating the candidates for one
    pair across wedges yields the difference constraints.  Returns the
    deduplicated presentation and the candidates, pair -> tuple of
    (label, candidate Poly)."""
    ring = PolyRing.get(n)
    labeled = []
    candidates: dict = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                sym, orient = wedge_symbol(WEDGE_NS, pair(i, j), pair(i, k))
                by_x = (wedge_value[sym] * orient).split_by_x()
                label = f"wedge({i};{j},{k})"
                special = {k: (pair(i, j), sign), j: (pair(i, k), -sign)}
                for l in range(1, n + 1):
                    coeff = by_x.get(ring.var_mono(ring.x_var(l)), ring.zero())
                    if l in special:
                        pr, s = special[l]
                        candidates.setdefault(pr, []).append((label, coeff * s))
                    else:
                        labeled.append((coeff, f"vanish({i};{j},{k}|{l})"))
    for pr in basis_pairs(n):
        cands = candidates.get(pr, [])
        for (lab_a, a), (lab_b, b) in zip(cands, cands[1:]):
            labeled.append((a - b, f"match[{lab_a}~{lab_b}]@e[{pr[0]},{pr[1]}]"))
    equations = deduplicated(n, flavor, labeled)
    return equations, {p: tuple(c) for p, c in candidates.items()}


@lru_cache(maxsize=None)
def second_order_obstruction(n: int) -> ObstructionSystem:
    """Expand (f1.r1 + f2.r0) = 0 on each shared-index wedge with unknown
    quadratic tails and compare the x-coefficients of f1.r1
    (``coefficient_system`` with sign +1, so the candidates are the tails).

    Coefficients away from the two special indices must vanish outright;
    equating the candidate expressions for one tail across wedges yields
    the difference constraints.  The collected system spans the same
    degree-2 space as the generator presentation."""
    f1 = build_f(n)[1]
    r1 = build_r(n)[1]
    products = {
        sym: apply_images(f1, r1[sym])
        for sym in wedge_symbols(n)
        if not is_koszul(sym)
    }
    equations, candidates = coefficient_system(n, products, "hilbert", sign=1)
    return ObstructionSystem(equations=equations, candidates=candidates)


# -- the universal family ----------------------------------------------------------


def universal_family(n: int, flavor: str = "hilbert") -> tuple:
    """One generator per pair i <= j, in pair order: the sum f0 + f1 + f2 of
    the order tables of ``build_f`` on its e-symbol, which is
    x_i x_j + sum_k t(i,j,k) x_k + sum_k q(i,j,k|k)/(n-1)."""
    f0, f1, f2 = build_f(n)
    family = tuple(f0[sym] + f1[sym] + f2[sym] for sym in f0)
    if flavor == "miniversal":
        return tuple(set_diagonal_zero(g) for g in family)
    if flavor != "hilbert":
        raise ValueError(f"unsupported flavor {flavor!r}")
    return family


@lru_cache(maxsize=None)
def _compiled_family(n: int) -> tuple:
    """``universal_family(n)`` compiled for ``family_at``, on its first call
    for n: per generator, one entry per x-monomial.  An entry holds the
    integer numerators of that x-monomial's t-coefficient over their common
    denominator e, the coefficient's t-degree d, and the positions of its
    t-monomials (each monomial without its leading -d).  The family is
    homogeneous of degree 2 in x and t together, so each coefficient has
    one t-degree."""
    compiled = []
    for g in universal_family(n):
        entries = []
        for xmono, coeff in g.split_by_x().items():
            terms = coeff.terms_dict()
            den = lcm(*(c.denominator for c in terms.values()))
            nums = tuple(c.numerator * (den // c.denominator) for c in terms.values())
            monos = tuple(m[1:] for m in terms)
            entries.append((xmono, den, len(monos[0]), nums, monos))
        compiled.append(tuple(entries))
    return tuple(compiled)


def family_at(n: int, tvals: dict) -> tuple:
    """The generators of ``universal_family(n)`` at a rational point, in
    pair order, each as its map x-monomial -> nonzero Fraction coefficient.

    ``tvals`` maps (i, j, k) to a rational; a key (j, i, k) names t(i,j,k)
    as in ``PolyRing.t_var``, and t-variables it leaves out are 0.  Exact:
    with D the lcm of the point's denominators, x = D*t is an integer
    point, and a t-coefficient of t-degree d with integer numerators c_m
    over e is sum_m c_m x^m / (e * D^d).  The family is compiled once per n
    (``_compiled_family``)."""
    compiled = _compiled_family(n)
    ring = PolyRing.get(n)
    position = ring.position
    point = {position[ring.t_var(*key)]: Fraction(val) for key, val in tvals.items()}
    scale = lcm(*(val.denominator for val in point.values()))
    x = [0] * ring.bounds["t"][1]
    for pos, val in point.items():
        x[pos] = val.numerator * (scale // val.denominator)
    family = []
    for entries in compiled:
        coeffs = {}
        for xmono, den, degree, nums, monos in entries:
            total = 0
            for c, positions in zip(nums, monos):
                for pos in positions:
                    c *= x[pos]
                total += c
            if total:
                coeffs[xmono] = Fraction(total, den * scale**degree)
        family.append(coeffs)
    return tuple(family)


# -- the cubic syzygy --------------------------------------------------------------


def syzygy_cubic(n: int, i: int, j: int, k: int) -> Poly:
    """sum over l, lam of t(i,j,l) q(k,l,lam|lam) - t(i,k,l) q(j,l,lam|lam);
    a cubic that lies in the ideal for every j != k.  The inner sums over
    lam are the diagonal sums D(k,l) and D(j,l) (``diagonal_sum``), so it is
    summed as sum over l of t(i,j,l) D(k,l) - t(i,k,l) D(j,l)."""
    if j == k:
        raise ValueError("requires j != k")
    ring = PolyRing.get(n)
    items = []
    for l in range(1, n + 1):
        items.append((1, ring.t(i, j, l), diagonal_sum(n, k, l)))
        items.append((-1, ring.t(i, k, l), diagonal_sum(n, j, l)))
    return sum_products(n, items)


# -- flatness of the full family ----------------------------------------------------


def flatness_residual(n: int) -> list:
    """Certify (f0+f1+f2)(r0+r1) on every shared-index wedge e[i,j]^e[i,k],
    one ``Record`` per part (wedge symbol, label) in checking order: orders
    0 and 1 vanish, n-1 times each x-coefficient of the t-degree-2 part lies
    in the degree-2 span, n-1 times the t-degree-3 part is the cubic syzygy
    at (i, j, k), and that cubic has a certificate (``orbit_memberships``).

    The pieces are summed n-1 times over, with f2 scaled by n-1, so the
    1/(n-1) of the tails is cleared and every query has int coefficients;
    a nonzero multiple of a query lies in the ideal exactly when the query
    does."""
    f0, f1, f2 = build_f(n)
    # (scale, table) per order of f, each product taken n-1 times
    f = ((n - 1, f0), (n - 1, f1), (1, {e: p * (n - 1) for e, p in f2.items()}))
    r = build_r(n)
    pres = ideal_generators(n)
    ring = PolyRing.get(n)
    queries = []
    for sym in wedge_symbols(n):
        if not is_koszul(sym):
            triple = nonkoszul_triple(sym)
            queries.append(((sym, "t-degree-3 part"), triple, syzygy_cubic(n, *triple)))
    records = []
    for cubic in orbit_memberships(queries, pres):
        sym = cubic.part[0]
        # n-1 times the t-degree-d piece sums f[df] on r[dr] over df + dr = d
        items = [[] for _ in range(4)]
        for df, (scale, fd) in enumerate(f):
            for dr in range(2):
                items[df + dr] += [(scale, c, fd[e]) for e, c in r[dr][sym].terms()]
        pieces = [sum_products(n, part) for part in items]
        low_zero = pieces[0].is_zero and pieces[1].is_zero
        records.append(identity((sym, "orders 0 and 1"), low_zero))
        for xmono, q in sorted(pieces[2].split_by_x().items()):
            if xmono == ONE:
                raise AssertionError("unexpected x-free t-degree-2 part")
            part = f"x_{ring.variables[xmono[1]][1]}-coefficient of the t-degree-2 part"
            cert = scaled_certificate(q, pres) or membership(q, pres)
            records.append(certified((sym, part), q, pres, cert))
        part = "t-degree-3 part as the cubic syzygy over n-1"
        records.append(identity((sym, part), pieces[3] == cubic.query))
        records.append(cubic)
    return records


def koszul_lift_failures(n: int) -> list:
    """The disjoint wedges e_p^e_q, in ``wedge_symbols`` order, whose trivial
    lift does not have its form.  With g_r the generator of
    ``universal_family(n)`` on the pair r, ``leibniz_value`` of e_r -> g_r
    must be exactly g_p e_q - g_q e_p, and ``leibniz_value`` of f0 must be
    the Koszul relation r0 of ``build_r``, which ``taylor.r_symbol`` builds
    separately.

    That is enough: the family applied to the lift is g_p g_q - g_q g_p,
    zero because ``Poly`` multiplication commutes
    (tests/test_poly.py::test_ring_axioms_against_fraction_reference), so
    the composite is not multiplied out."""
    f0 = build_f(n)[0]
    family = dict(zip(f0, universal_family(n)))  # both in pair order
    r0 = build_r(n)[0]
    failures = []
    for sym in wedge_symbols(n):
        if not is_koszul(sym):
            continue
        e_p, e_q = (E_NS,) + sym[1], (E_NS,) + sym[2]
        lift = dict(leibniz_value(n, sym, family.__getitem__).terms())
        if lift != {e_q: family[e_p], e_p: -family[e_q]} or (
            leibniz_value(n, sym, f0.__getitem__) != r0[sym]
        ):
            failures.append(sym)
    return failures
