"""Tree coefficients of the inverse activity series, and their fixed point.

The rooted series T(q; nu) with coefficients t_n solves

    T(q; nu) = exp( sum_n (1/n!) sum_x A_n(q; x) T(x_1; nu)...T(x_n; nu) nu^n )

and the density-to-activity map is zeta(q) = nu(q) T(q; nu).  The
coefficients obey a triangular recursion: with t_0 = 1,

    B_n(q; x_1..x_n) = sum over nonempty J of A_(|J|)(q; x_J) *
                       sum over assignments of the rest to owners j in J of
                       prod_j t_(|V_j|)(x_j; x_(V_j))
    t_n(q; x)        = sum over set partitions P of [n] of
                       prod_blocks B_(|block|)(q; x_block)

so t_n needs only t_1..t_(n-1).  t_1 = B_1 = A_1.

The same coefficients arise as sums over rooted labeled trees whose child
sets are partitioned into cliques, each clique J at vertex i weighing
A_(|J|+1)(x_i; (x_j for j in J)).  Two verification routines re-derive the
fixed point (and its activity-side variant) from the generic series
operations and report the residual, which must vanish identically in exact
mode.
"""

from __future__ import annotations

import math

from .certs import BoundCertificate, ResidualReport, weight_vector
from .errors import DomainError
from .fps import (
    _majorant_sums,
    _max_delta,
    _start,
    _sweep,
    compose_measure,
    exp_series,
    left_sum,
    measure_sums,
)


def compute_tn(A):
    """Tree coefficients t_1..t_N from the activity coefficients A, N its
    truncation order.

    A is a rooted family whose order-n slice holds A_n(q; .); its order-0
    slice must vanish.  The result is the rooted family T(q; .): order 0 is
    identically 1 and order n holds t_n(q; .).
    """
    N = A.trunc
    a = A._orders
    if any(v != 0 for v in a[0].values()):
        raise DomainError("activity family must have zero order-0 slice")
    S = A.space.size
    b = _start(S, S, N)
    t = _start(S, S, N, first=1)
    ones = [1] * (N + 1)
    for n in range(1, N + 1):
        # B_n reads t below order n; t_n is the exp-type partition sum of B
        _sweep(S, (n,), "compose", b, a, sub=t)
        _sweep(S, (n,), "partition", t, b, f=ones)
    return A._like(t)


# ---------------------------------------------------------------------------
# Evaluation and certificates


def eval_T(t, nu):
    """Numeric T(q; nu) = 1 + sum_n (1/n!) sum_x t_n(q; x) nu^n, as the
    list over all roots q, from one pass."""
    return measure_sums(t, tuple(nu))


def eval_T_abs(t, nu, b):
    """Certificate that 1 + sum (1/n!) sum |t_n| |nu|^n <= exp(b(q)) per q.

    Also reports, per root, the implied weight log(partial sum): the
    smallest constant the truncated sum itself would certify.  ``b`` needs
    one entry per root (else StructureError); a negative entry is allowed.
    """
    b = weight_vector("b", b, t.space.size)
    sums = [left_sum(col) for col in zip(*_majorant_sums(t, nu))]
    margins = tuple(math.exp(float(b[q])) - sums[q] for q in range(t.space.size))
    implied = tuple(math.log(s) if s > 0 else float("-inf") for s in sums)
    return BoundCertificate(
        condition="Mb",
        margins=margins,
        b=b,
        trunc=t.trunc,
        notes="partial sums through the truncation order only",
        extras={"sums": tuple(sums), "implied_b": implied},
    )


def residual_report(name, *pairs, start=0):
    """Coefficientwise |lhs - rhs| over (lhs, rhs) pairs of families or
    series, from order ``start`` through the lower truncation of each pair:
    the worst value overall and per order, read from the stored orders.
    Equal exact orders give the int 0; otherwise the first largest delta
    keeps its type (``fps._max_delta``), and a NaN delta makes its order's
    maximum, and the overall one, NaN."""
    worst = 0
    per_order = {}
    exact = True
    for lhs, rhs in pairs:
        for n, (x, y) in enumerate(zip(lhs._orders[start:], rhs._orders[start:]), start):
            top, same = _max_delta(x, y, per_order.get(n, 0))
            exact = exact and same
            per_order[n] = top
            if top > worst or top != top:
                worst = top
    return ResidualReport(name, worst, per_order, exact=exact)


def verify_FP(A, t):
    """Residual of the defining fixed point, rebuilt from generic series ops.

    For each root q the inner series B = A(q; .) composed with the family T
    is exponentiated and compared against T(q; .) coefficientwise.
    """
    lhs = exp_series(compose_measure(A, t))
    return residual_report("fixed_point", (lhs, t))


def verify_FPprime(A, t):
    """Residual of the activity-side fixed point.

    Substituting the factor family E(x; z) = exp(-A(x; z)) into T(q; .)
    must reproduce exp(A(q; z)) coefficientwise.
    """
    lhs = compose_measure(t, exp_family(A))
    return residual_report("fixed_point_activity", (lhs, exp_series(A)))


def exp_family(A):
    """The factor family x -> exp(-A(x; .)), root by root."""
    return exp_series(A.scale(-1))
