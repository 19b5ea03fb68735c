"""Density-activity inversion on a finite species space, with certificates.

The grand-canonical state bundles a species space, Mayer matrices, and a
truncation order N, and lazily caches the derived objects: the rooted
activity coefficients A_n(q; .), the tree coefficients t_n, the rooted
biconnected sums D_(n+1)(q; .), and the connected sums phi_n.  On top of it:

* forward map   rho(q) = z(q) exp(-A(q; z))
* inverse map   zeta(q) = nu(q) T(q; nu)                     (tree path)
                zeta(q) = nu(q) exp(-sum (1/n!) D_(n+1) nu^n) (biconnected path)
* exact reference quantities on hard-core spaces (partition function and
  one-point density by direct configuration sums)
* pressure and free energy as truncated biconnected sums
* convergence certificates: the pair-interaction condition on activities
  (PU), the weighted-activity condition on the coefficients (Sb), the
  combined condition (Sab), and absolute-sum conditions on D and t
* identity checks: round trip of the two maps, agreement of the two zeta
  paths, and the dissymmetry identity for connected sums, all exact in
  rational mode.

Conventions: measure values are densities relative to the quadrature
weights; all partial sums are truncated at N and certificates record that.
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement

import numpy as np

from .certs import ResidualReport, certify
from .errors import CapabilityError, DomainError, StructureError, check_scale, max_order, required_fields
from .fps import (
    FormalSeries,
    RootedSeriesFamily,
    _majorant_sums,
    _rank,
    _start,
    _sweep,
    canonical_indices,
    compose_measure,
    exp_series,
    left_sum,
    measure_sums,
    mul,
    sym_factor,
)
from .graphs import build_A_family, build_D_family, build_phi_series, entry_classes
from .species import (
    MayerMatrices,
    MeasureVec,
    build_mayer,
    load_species_json,
    parse_measure,
)
from .treefp import (
    compute_tn,
    eval_T,
    exp_family,
    residual_report,
)


def _exp(v):
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


def _full_tuple_d(d_family, N, factors):
    """The series of c_n D_n(x_1..x_n) over full tuples at orders 2 <= n <= N
    (0 below), c_n = factors[n - 2], read from a rooted biconnected family
    through order N - 1 or more, where D_n on a full tuple sits at order n-1,
    rooted at its first entry."""
    S = d_family.space.size
    orders = [[0] * len(_rank(S, n)) for n in range(min(N + 1, 2))]
    for n, (c, order) in enumerate(zip(factors, d_family._orders[1:N]), 2):
        D, rank = order.values(), _rank(S, n - 1)
        orders.append([c * D[ms[0] * len(rank) + rank[ms[1:]]] for ms in canonical_indices(S, n)])
    return FormalSeries.from_orders(d_family.space, N, orders, allow_large=True)


# coefficients and report values that the f-keyed memo holds at most, over
# all its entries: nearly twice the 4,406 of requests_exact's 43 (36
# families, phi kept with every A, 5 reports and 2 full-tuple D series)
MEMO_BOUND = 8192


class _Memo:
    """Results that depend on the Mayer function f alone, shared by every
    exact matrix of the process and keyed by its entry classes
    (``graphs.entry_classes``): coefficient families, full-tuple D series
    and residual reports.

    Each entry is kept with its size, its count of coefficients or values,
    and the kept sizes add up to ``bound`` at most: the least recently read entry is
    dropped first, and one larger than the bound is not kept.  A lock guards
    the entries; a value is built outside it, and of two threads that miss
    on one key, the first to put its value keeps it.
    """

    def __init__(self, bound):
        self.bound = bound
        self.size = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The value kept under ``key``, now the most recently read, else None."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit[0]
        return None

    def put(self, key, value, size):
        """Keep ``value`` of ``size`` under ``key`` when it fits and the key is free."""
        if size > self.bound:
            return
        with self._lock:
            if key not in self._entries:
                self._entries[key] = (value, size)
                self.size += size
                while self.size > self.bound:
                    self.size -= self._entries.popitem(last=False)[1][1]


_MEMO = _Memo(MEMO_BOUND)


def _pack(value):
    """(the memo's immutable form of ``value``, its size): a report as its
    fields, sized by its values, and a family or series as its order
    layouts, sized by its coefficient count."""
    if isinstance(value, ResidualReport):
        per_order = tuple(value.per_order.items())
        return (ResidualReport, (value.name, value.max_abs, per_order, value.exact, value.notes)), 1 + len(per_order)
    size = value.roots * sum(len(_rank(value.space.size, n)) for n in range(value.trunc + 1))
    return (type(value), tuple(value._orders)), size


def _unpack(kept, space):
    """A fresh value from the memo's form ``kept``: a report of its own, or
    the kept layouts in a family or series over ``space``, whose weights
    enter only when a series is summed."""
    cls, fields = kept
    if cls is ResidualReport:
        name, max_abs, per_order, exact, notes = fields
        return ResidualReport(name, max_abs, dict(per_order), exact=exact, notes=notes)
    return cls(space, list(fields))


class GCState:
    """A species space with Mayer matrices and truncation order, plus caches.

    On a matrix marked exact, every family, full-tuple D series and residual
    report is read through the process's f-keyed memo (``_Memo``), so states
    with the same f build each once; a float matrix builds its own, since
    equal floats need not be the same entry (-0.0 == 0.0).
    """

    def __init__(self, space, pot=None, mayer=None, N=4, allow_large=False):
        if mayer is None:
            if pot is None:
                raise StructureError("GCState needs a potential or Mayer matrices")
            mayer = build_mayer(pot)
        if mayer.space != space:
            raise StructureError("Mayer matrices built on a different space")
        check_scale(order=N, species=space.size, allow_large=allow_large)
        self.space = space
        self.pot = pot
        self.mayer = mayer
        self.N = N
        self._d_tails = {}
        self._given = {}
        if pot is not None:
            self.beta_B = tuple(pot.beta * b for b in pot.b_stability)
            self.beta_Bstar = tuple(pot.beta * b for b in pot.b_star)
        else:
            self.beta_B = (0,) * space.size
            self.beta_Bstar = (0,) * space.size

    @classmethod
    def from_f(cls, space, f, N=4, exact=True, allow_large=False):
        return cls(
            space,
            mayer=MayerMatrices.from_f(space, f, exact=exact),
            N=N,
            allow_large=allow_large,
        )

    @property
    def exact(self):
        return bool(self.mayer.exact)

    @cached_property
    def _family_key(self):
        """The entry classes of an exact matrix (``graphs.entry_classes``):
        its distinct entries and each entry's index among them, which
        equal matrices share.  After a result's name and orders, this ends
        its key in the f-keyed memo; None, on a float matrix, bypasses
        it."""
        return entry_classes(self.mayer.f) if self.mayer.exact else None

    def _kept(self, key, build, *reads):
        """build(*reads), read through the f-keyed memo under ``key`` plus
        the entry classes when the matrix has them: a family, series or
        report, kept as immutable fields and served fresh (``_pack``,
        ``_unpack``).  ``reads`` are the state values build() reads: a kept
        value is served, and a built one kept, only when each of them is
        (``is``) a value this method gave the state, which keeps the last
        one per key.  So a value that a caller replaced, and each value
        built from it, is the state's own and never kept."""
        given = self._given.values()
        if self._family_key is None or not all(any(v is g for g in given) for v in reads):
            return build(*reads)
        key += (self._family_key,)
        hit = _MEMO.get(key)
        if hit is None:
            value = build(*reads)
            _MEMO.put(key, *_pack(value))
        else:
            value = _unpack(hit, self.space)
        self._given[key] = value
        return value

    def _d_family(self, N):
        return self._kept(("D", N), lambda: build_D_family(self.space, self.mayer, N, allow_large=True))

    @cached_property
    def a_family(self):
        return self._kept(
            ("A", self.N),
            lambda phi: build_A_family(self.space, self.mayer, self.N, phi, allow_large=True),
            self.phi_series,
        )

    @cached_property
    def t_family(self):
        return self._kept(("t", self.N), compute_tn, self.a_family)

    @cached_property
    def d_family(self):
        return self._d_family(self.N)

    def d_tail(self, factors):
        """``_full_tuple_d`` of ``d_family`` through order N, built once per
        factor tuple, read through the f-keyed memo, and kept by the state;
        a series is never changed in place."""
        series = self._d_tails.get(factors)
        if series is None:
            series = self._d_tails[factors] = self._kept(
                ("D tail", self.N, factors), lambda d: _full_tuple_d(d, self.N, factors), self.d_family
            )
        return series

    @cached_property
    def phi_series(self):
        return self._kept(("phi", self.N), lambda: build_phi_series(self.space, self.mayer, self.N, allow_large=True))

    @cached_property
    def e_family(self):
        """The factor family x -> exp(-A(x; .)) as formal series."""
        return self._kept(("exp(-A)", self.N), exp_family, self.a_family)

    def measure(self, values):
        return MeasureVec(self.space, values)


# ---------------------------------------------------------------------------
# Certificates


def _exp_lanes(e):
    """``math.exp`` of each lane of the float64 array ``e``, in an array of
    its shape: the bits of the scalar ``math.exp``, which ``np.exp`` need
    not share, and its OverflowError."""
    return np.array(list(map(math.exp, e.ravel().tolist()))).reshape(e.shape)


def _pair_margins(st, nu, *shifts):
    """The margins of a pair condition as a batch function of weight rows
    (a, b): per row and species x, a(x) - sum_y fbar(x, y) exp(e(y)) |nu|(y)
    w(y), where e(y) adds a(y), then b(y) unless b is None, then each vector
    of ``shifts`` at y, as floats, left to right.  The state, the measure
    and the shifts are converted to floats once, for every row.

    The rows run as float64 lanes with the scalar operations in the scalar
    order, so each margin has the bits of the one-row loop
    (``oracles.pair_margins_termwise``): ``math.exp`` per lane
    (``_exp_lanes``), each term ((fbar exp(e)) |nu|) w, the sum
    over y from 0.0 left to right, and the margins returned as Python
    floats.  Every row of one batch reads b, or none does."""
    S = st.space.size
    vals = np.array([float(abs(v)) for v in nu])
    w = np.array([float(v) for v in st.space.weights])
    fbar = np.array([[float(v) for v in row] for row in st.mayer.f_bar])
    shifts = [np.array([float(v) for v in vec]) for vec in shifts]

    def margins(rows):
        a = np.array([[float(v) for v in row_a] for row_a, _ in rows])
        e = a.copy()
        if rows[0][1] is not None:
            e += [[float(v) for v in row_b] for _, row_b in rows]
        for vec in shifts:
            e += vec
        ex = _exp_lanes(e)
        with np.errstate(all="ignore"):
            # term[r, x, y] = ((fbar(x, y) exp(e_r(y))) |nu|(y)) w(y)
            term = fbar * ex[:, None, :]
            term *= vals
            term *= w
            total = np.zeros(a.shape)
            for y in range(S):
                total += term[:, :, y]
            return [tuple(row) for row in (a - total).tolist()]

    return margins


def check_PU(st, z, a=None):
    """Pair-interaction condition on an activity: per species x,

        sum_y fbar(x, y) exp(a(y) + beta B(y)) |z|(y) w(y) <= a(x).

    With a=None a constant weight is chosen by grid search.
    """
    z = st.measure(z).values
    return certify("PU", _pair_margins(st, z, st.beta_B), st.space.size, a=a, reads="a")


def check_Sb(st, nu, b=None):
    """Weighted absolute-coefficient condition: per root q,

        sum_{1<=n<=N} (1/n!) sum_x |A_n(q; x)| prod exp(b(x_j)) |nu|^n <= b(q).

    The left side is a partial sum through N; the certificate records that.
    """
    nu = st.measure(nu).values
    S = st.space.size
    if b is not None:
        def margins(rows):
            out = []
            for _, bvec in rows:
                # each tail species x carries its exp(b(x)) inside the measure
                boosted = [float(abs(v)) * math.exp(float(bvec[x])) for x, v in enumerate(nu)]
                sums = [left_sum(col) for col in zip(*_majorant_sums(st.a_family, boosted, start=1))]
                out.append(tuple(float(bvec[q]) - sums[q] for q in range(S)))
            return out
    else:
        # on the grid, per-order sums with the exp(b) factors stripped; a
        # constant b = c re-enters as exp(n c), one per (c, n), and each root
        # adds its orders from 0.0, n = 1..N, for every constant at once
        raw = np.array(_majorant_sums(st.a_family, nu, start=1)[1 : st.N + 1]).reshape(st.N, S)

        def margins(rows):
            c = np.array([bvec[0] for _, bvec in rows])
            boost = _exp_lanes(np.outer(c, np.arange(1, st.N + 1)))
            total = np.zeros((len(rows), S))
            with np.errstate(all="ignore"):
                for n in range(st.N):
                    total += raw[n] * boost[:, n, None]
                return [tuple(row) for row in (c[:, None] - total).tolist()]

    return certify(
        "Sb", margins, S, b=b, reads="b", trunc=st.N, notes="partial sums through the truncation order only",
    )


def check_Sab(st, nu, a=None, b=None):
    """Combined condition: per species x,

        sum_y fbar(x, y) exp(a + b + beta B + beta B*)(y) |nu|(y) w(y) <= a(x).
    """
    nu = st.measure(nu).values
    return certify("Sab", _pair_margins(st, nu, st.beta_B, st.beta_Bstar), st.space.size, a=a, b=b)


def check_virMb(st, nu, b=None):
    """Absolute biconnected sums against a weight: per root q,

        sum_{1<=n<=N} (1/n!) sum_x |D_(n+1)(q; x)| |nu|^n <= b(q).
    """
    nu = st.measure(nu).values
    S = st.space.size
    sums = [left_sum(col) for col in zip(*_majorant_sums(st.d_family, nu, start=1))]

    def margins(rows):
        return [tuple(float(bvec[q]) - sums[q] for q in range(S)) for _, bvec in rows]

    return certify(
        "virMb", margins, S, b=b, reads="b", trunc=st.N,
        notes="partial sums through the truncation order only",
        extras={"sums": tuple(sums)},
    )


# ---------------------------------------------------------------------------
# The maps


def rho_of_z(st, z):
    """Forward map: rho(q) = z(q) exp(-A(q; z)), truncated at N."""
    vals = st.measure(z).values
    a_vals = measure_sums(st.a_family, vals, start=1)
    return MeasureVec(st.space, [v * _exp(-a) for v, a in zip(vals, a_vals)])


def zeta_of_nu(st, nu, path="biconnected"):
    """Inverse map: tree path nu(q) T(q; nu), or biconnected path
    nu(q) exp(-sum (1/n!) sum D_(n+1)(q; x) nu^n).  Both truncated at N;
    they agree as formal series through order N (see zeta_path_agreement).
    """
    vals = st.measure(nu).values
    if path == "tree":
        out = [v * T for v, T in zip(vals, eval_T(st.t_family, vals))]
    elif path == "biconnected":
        d_vals = measure_sums(st.d_family, vals, start=1)
        out = [v * _exp(-d) for v, d in zip(vals, d_vals)]
    else:
        raise DomainError("path must be 'tree' or 'biconnected'")
    return MeasureVec(st.space, out)


def zeta_path_agreement(st):
    """Coefficientwise residual between the two zeta paths through order N;
    kept in the f-keyed memo while the state's t and D are the memo's."""
    def build(t, d):
        return residual_report("zeta_path_agreement", (t, exp_series(d.scale(-1))))

    return st._kept(("zeta_path_agreement", st.N), build, st.t_family, st.d_family)


def roundtrip_check(st):
    """Residual of zeta(rho(z)) = z and rho(zeta(nu)) = nu as formal series.

    Substituting the density factor family into T must invert the activity
    factor exp(-A) and vice versa; both products are compared against the
    constant series 1.  Exact zero in rational mode.  Kept in the f-keyed
    memo while the state's t and exp(-A) are the memo's.
    """
    def build(T, E):
        unit = T._like(_start(st.space.size, st.space.size, st.N, first=1))
        return residual_report(
            "roundtrip",
            (mul(E, compose_measure(T, E)), unit),
            (mul(T, compose_measure(E, T)), unit),
        )

    return st._kept(("roundtrip", st.N), build, st.t_family, st.e_family)


def extract_d_from_a(st):
    """Rebuild the biconnected family from A by triangular extraction.

    The activity-side identity -A(q; z) = sum (1/n!) sum D_(n+1)(q; x)
    prod_j exp(-A(x_j; z)) z^n determines D order by order: the top term of
    the composition is D_(n+1) itself since the factor family has unit
    constant term.  Returns a family in the same layout as d_family.
    """
    S = st.space.size
    F = st.a_family.scale(-1)._orders
    D = _start(S, S, st.N)
    # one sweep over the orders, each reading the lower orders it has
    # written; the template J = all positions reads the unknown D_n term
    # itself, 0 until written, so that template is skipped as a zero
    _sweep(S, tuple(range(1, st.N + 1)), "compose", D, D, sub=st.e_family._orders, init=F)
    return st.a_family._like(D)


# ---------------------------------------------------------------------------
# Exact reference quantities (configuration sums)


@dataclass
class XiResult:
    value: object
    n_max: int
    truncated: bool
    by_order: list


def _pair_weight(f, ms):
    """prod over pairs inside the multiset of (1 + f); exp(-beta H) exactly."""
    total = 1
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            total = total * (1 + f[ms[i]][ms[j]])
            if total == 0:
                return 0
    return total


def _diag_hard(st):
    return all(st.mayer.f[x][x] == -1 for x in range(st.space.size))


def _configuration_terms(st, z, n_max, root=None):
    """Yield (n, term) for every configuration of 1..n_max particles with a
    nonzero term exp(-beta H) prod z(x) w(x) / sym, in order.  With a root
    the term also carries prod (1 + f(root, x)), the root's Boltzmann factor.

    Under a diagonal hard core only sets of distinct species weigh, so sets
    are enumerated (multisets would cost about C(2S, S) at n = S).
    """
    f = st.mayer.f
    w = st.space.weights
    z = tuple(z)
    zw = [z[x] * w[x] for x in range(st.space.size)]
    distinct = _diag_hard(st)
    configs = combinations if distinct else combinations_with_replacement
    for n in range(1, n_max + 1):
        for ms in configs(range(st.space.size), n):
            wgt = _pair_weight(f, ms)
            for x in ms:
                if wgt == 0:
                    break
                if root is not None:
                    wgt = wgt * (1 + f[root][x])
                wgt = wgt * zw[x]
            if wgt != 0:
                yield n, wgt if distinct else wgt * Fraction(1, sym_factor(ms))


def xi_exact(st, z, n_max=None):
    """The grand partition function by direct configuration sum.

    With a diagonal hard core every species appears at most once, the sum
    terminates at n = S, and the result is exact (rational in exact mode).
    Otherwise an explicit n_max is required and the result is flagged as
    truncated.
    """
    diag_hard = _diag_hard(st)
    if n_max is None:
        if not diag_hard:
            raise DomainError(
                "xi_exact terminates only under a diagonal hard core; "
                "pass n_max explicitly otherwise"
            )
        n_max = st.space.size
    by_order = [1] + [0] * n_max
    for n, term in _configuration_terms(st, z, n_max):
        by_order[n] += term
    return XiResult(left_sum(by_order), n_max, not diag_hard, by_order)


def density_exact(st, z, n_max=None):
    """One-point density of every species by direct configuration sums:

        rho(q) = z(q) * sum_n (1/n!) sum_x exp(-beta H_(n+1)(q, x)) z^n / Xi.

    Exact under a diagonal hard core.
    """
    xi = xi_exact(st, z, n_max=n_max)
    out = []
    for root in range(st.space.size):
        total = 1
        for _, term in _configuration_terms(st, z, xi.n_max, root=root):
            total += term
        out.append(tuple(z)[root] * total / xi.value)
    return MeasureVec(st.space, out)


# ---------------------------------------------------------------------------
# Pressure, free energy, connected sums


def log_xi_series(st, z):
    """Truncated log of the partition function: sum (1/n!) sum phi_n z^n."""
    return st.phi_series.evaluate(st.measure(z))


def _nonnegative_density(st, nu, what):
    vals = st.measure(nu).values
    if any(float(v) < 0 for v in vals):
        raise DomainError(f"{what} needs a non-negative density")
    return vals


def pressure_of_nu(st, nu):
    """Truncated pressure functional of a density:

        sum_x nu(x) w(x) - sum_{2<=n<=N} ((n-1)/n!) sum_x D_n nu^n.

    The sign and the (n-1) weight are pinned by the Tonks equation of state
    beta p = rho/(1 - a rho).  A negative density raises DomainError.
    """
    vals = _nonnegative_density(st, nu, "pressure")
    w = st.space.weights
    ideal = left_sum(v * wx for v, wx in zip(vals, w))
    return ideal - measure_sums(st.d_tail(tuple(range(1, st.N))), vals, start=2)


def free_energy(st, nu, m=None):
    """Truncated free-energy functional of a non-negative density:

        sum_x nu(x) (log(nu(x)/m(x)) - 1) w(x)
        - sum_{2<=n<=N} (1/n!) sum_x D_n nu^n

    with the convention 0 log 0 = 0.  m defaults to the unit density; a
    negative density or reference measure raises DomainError.
    """
    vals = _nonnegative_density(st, nu, "free energy")
    m = (1,) * st.space.size if m is None else st.measure(m).values
    if any(float(v) < 0 for v in m):
        raise DomainError("free energy needs a non-negative reference measure")
    w = st.space.weights
    entropy = 0.0
    for x, v in enumerate(vals):
        fv = float(v)
        if fv == 0:
            continue
        if float(m[x]) == 0:
            raise DomainError("density has mass outside the reference measure")
        entropy += fv * (math.log(fv / float(m[x])) - 1) * float(w[x])
    return entropy - float(measure_sums(st.d_tail((1,) * (st.N - 1)), vals, start=2))


def dissymmetry_check(st, N=None):
    """Residual of the connected-sum rearrangement identity through order N:

        phi_n = n phi_n - sum_{m=2}^{n} (m-1) sum_{|L|=m} D_m(x_L)
                * sum over assignments of the rest to owners l in L of
                  prod_l phi_(|J_l|+1)(x_(J_l), x_l).

    Exact zero in rational mode; returns the worst residual per order.  Kept
    in the f-keyed memo while the state's phi is the memo's; the D it reads
    comes from the memo already.
    """
    if N is None:
        N = min(st.N, 5)
    if N > st.N:
        raise DomainError("requested order exceeds the state truncation")
    if N > 5:
        raise CapabilityError("dissymmetry check supports orders n <= 5")
    return st._kept(("dissymmetry", st.N, N), lambda phi: _dissymmetry(st, phi, N), st.phi_series)


def _dissymmetry(st, phi, N):
    """The report of ``dissymmetry_check`` on the connected sums ``phi`` at
    an order N it accepts."""
    space = st.space
    S = space.size
    # (m - 1) D_m on every canonical tuple of orders 2..N, read from the
    # rooted family through order N - 1; order 1 holds 0, which drops the
    # single-owner templates
    dm = _full_tuple_d(st._d_family(max(N - 1, 0)), N, tuple(range(1, N)))
    # phi's values per order, read from its stored orders
    P = [order.values() for order in phi._orders[:N + 1]]
    # owner x with the block V: phi_(|V|+1)(x_V, x), read below order N
    owner = RootedSeriesFamily.from_function(
        space,
        N,
        lambda m, x, v: P[m + 1][_rank(S, m + 1)[tuple(sorted(v + (x,)))]] if m < N else 0,
        allow_large=True,
    )
    # each order-n sum starts from n phi_n
    n_phi = FormalSeries.from_orders(
        space, N, [[n * v for v in P[n]] if n >= 2 else [0] * len(P[n]) for n in range(N + 1)], allow_large=True
    )
    rhs = _start(1, S, N)
    _sweep(S, range(2, N + 1), "compose", rhs, dm._orders, sub=owner._orders, init=n_phi._orders)
    return residual_report("dissymmetry", (phi, n_phi._like(rhs)), start=2)


# ---------------------------------------------------------------------------
# JSON request interface


def _check_count(value, name):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


def run_request(request):
    """Serve a JSON-style request dict:

        {"state": <species document: dict, path or JSON text>,
         "N": <non-negative int, default 4>,
         "op": <operation>, "inputs": {...}}

    and return a JSON-compatible response with values, certificates, and
    residuals as appropriate for the operation.
    """
    with required_fields("request"):
        space, pot = load_species_json(request["state"])
        op = request["op"]
        N = request.get("N", 4)
        inputs = request.get("inputs", {})
    if not isinstance(inputs, dict):
        raise StructureError(f"inputs must be an object, got {inputs!r}")
    _check_count(N, "N")
    n_max = inputs.get("n_max")
    if n_max is not None:
        _check_count(n_max, "n_max")
        # the configuration sum grows like S^n_max; same ceiling as N
        if n_max > max_order():
            raise CapabilityError(f"n_max {n_max} exceeds the ceiling {max_order()}")
    st = GCState(space, pot=pot, N=N)
    resp = {"op": op, "N": N}
    S = space.size

    def measure(key):
        with required_fields("request"):
            values = inputs[key]
        return parse_measure(values, S, key)

    def weight(key):
        return None if inputs.get(key) is None else measure(key)

    if op == "rho_of_z":
        resp["values"] = [float(v) for v in rho_of_z(st, measure("z"))]
    elif op == "zeta_of_nu":
        path = inputs.get("path", "biconnected")
        resp["values"] = [float(v) for v in zeta_of_nu(st, measure("nu"), path=path)]
        resp["path"] = path
    elif op == "log_xi_series":
        resp["values"] = float(log_xi_series(st, measure("z")))
    elif op == "pressure":
        resp["values"] = float(pressure_of_nu(st, measure("nu")))
    elif op == "free_energy":
        resp["values"] = free_energy(st, measure("nu"), weight("m"))
    elif op == "xi_exact":
        xi = xi_exact(st, measure("z"), n_max=n_max)
        resp["values"] = float(xi.value)
        resp["truncated"] = xi.truncated
        resp["n_max"] = xi.n_max
    elif op == "density_exact":
        rho = density_exact(st, measure("z"), n_max=n_max)
        resp["values"] = [float(v) for v in rho]
    elif op == "check_PU":
        cert = check_PU(st, measure("z"), weight("a"))
        resp["certificates"] = [cert.to_dict()]
    elif op == "check_Sb":
        cert = check_Sb(st, measure("nu"), weight("b"))
        resp["certificates"] = [cert.to_dict()]
    elif op == "check_Sab":
        cert = check_Sab(st, measure("nu"), weight("a"), weight("b"))
        resp["certificates"] = [cert.to_dict()]
    elif op == "roundtrip":
        resp["residuals"] = [roundtrip_check(st).to_dict()]
    elif op == "dissymmetry":
        resp["residuals"] = [dissymmetry_check(st).to_dict()]
    elif op == "zeta_paths":
        resp["residuals"] = [zeta_path_agreement(st).to_dict()]
    else:
        raise DomainError(f"unknown operation {op!r}")
    return resp
