"""Single-species translation-invariant models: exact 1D oracles, Mayer
integrals, and the radius/constant bounds.

Everything here works with scalars instead of measures: the model is a
hard-core interaction in d dimensions characterized by its exclusion
distance, and the quantities of interest are the irreducible integrals

    beta_n = (1/n!) integral D_(n+1)(0, x_1..x_n) dx,

the closed-form Tonks equation of state used as an exact oracle in 1D, and
the explicit constants and radii of the convergence bounds: the tree
generating function T with T = s e^T, the chain giving 1/(2e), the constant
k = max_w (2e^-w - 1) w, and the Banach-inversion comparison with ratio 8.

Exclusion-distance convention: ``exclusion`` is always the center-to-center
distance below which two particles overlap (for spheres of radius R that is
2R).  The convention is pinned by the invariant beta_1 = -c_bar.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .errors import CapabilityError, DomainError
from .fps import FormalSeries, exp_series, left_sum, log_series, mul, sym_factor
from .graphs import hard_core_d_table, pair_order
from .kernels import mc_batches, mc_mask_sum
from .species import MayerMatrices, SpeciesSpace

INV_2E = 1.0 / (2.0 * math.e)

# Newton stops once |T - s e^T| falls below this
TREE_FN_TOL = 1e-13

# the self-test ring is this many exclusion lengths around
RING_CELLS = 4


def vol_ball(d, r):
    """Volume of the d-ball of radius r; exact 2r in one dimension.

    When r ** d alone leaves the float range (d >= 13 puts the constant below
    1, so the volume can still be finite), r = m 2^e is split exactly and the
    power of two is applied last.  From d = 342 on Gamma(d/2 + 1) itself
    overflows, and the volume is taken in log space instead."""
    if d == 1:
        return 2 * r
    try:
        const = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    except OverflowError:
        r = float(r)
        if r == 0:
            return 0.0
        return math.exp(d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0 + 1.0) + d * math.log(r))
    try:
        return const * float(r) ** d
    except OverflowError:
        m, e = math.frexp(float(r))
        return math.ldexp(const * m**d, e * d)


@dataclass(frozen=True)
class HomogeneousModel:
    d: int
    kind: str
    exclusion: object  # center-to-center overlap distance
    beta: float = 1.0
    B: float = 0.0
    Bstar: float = 0.0

    @classmethod
    def hard_rod(cls, a, beta=1.0, B=0.0, Bstar=0.0):
        return cls(1, "hard_rod", a, beta, B, Bstar)

    @classmethod
    def hard_sphere(cls, d=3, radius=None, exclusion=None, beta=1.0, B=0.0, Bstar=0.0):
        if (radius is None) == (exclusion is None):
            raise DomainError("give exactly one of radius or exclusion")
        if exclusion is None:
            exclusion = 2 * radius
        return cls(d, "hard_sphere", exclusion, beta, B, Bstar)

    @classmethod
    def ideal(cls, d=1):
        return cls(d, "ideal", 0)

    @property
    def c_bar(self):
        """Exclusion integral: the volume of the overlap ball; OverflowError
        once it leaves the float range, above (every radius would be 0) or
        below (a positive exclusion whose volume rounds to 0.0 would read as
        the ideal gas)."""
        try:
            c = vol_ball(self.d, self.exclusion)
        except OverflowError:  # math raises instead of giving inf
            c = math.inf
        if c == math.inf:
            raise OverflowError("the exclusion volume c_bar is not finite")
        if c == 0 and self.exclusion > 0:
            raise OverflowError("the exclusion volume c_bar underflows to 0")
        return c


@dataclass
class VirialRow:
    n: int
    beta_n: object
    method: str
    stderr: float = 0.0


@dataclass
class MCEstimate:
    value: float
    stderr: float
    samples: int
    batches: int


# ---------------------------------------------------------------------------
# Tonks oracle (1D hard rods, closed form)


def tonks_beta_series(a, n_max):
    """beta_n for 1D hard rods of exclusion a, extracted mechanically as the
    order-n coefficients of -log(z(rho)/rho) from the closed-form equation
    of state (equation-of-state inversion route).  Exact rationals times a^n.

    The series are one-species ``FormalSeries``, whose order-n coefficient
    c_n stands for c_n rho^n / n!: the power a^n rho^n is c_n = n! a^n.
    """
    a = Fraction(a)
    one = SpeciesSpace.uniform(1)

    def powers(start):
        """sum_{n >= start} (a rho)^n."""
        return FormalSeries.from_function(
            one,
            n_max,
            lambda n, ms: math.factorial(n) * a**n if n >= start else 0,
            allow_large=True,
        )

    # z/rho = exp(a rho/(1 - a rho)) / (1 - a rho)
    L = log_series(mul(powers(0), exp_series(powers(1))))
    return [-L.value(n, (0,) * n) / math.factorial(n) for n in range(1, n_max + 1)]


def tonks_oracle(a, rho):
    """Closed-form Tonks gas at density rho: activity, pressure, free energy."""
    u = a * rho
    if not 0 <= u < 1:
        raise DomainError("Tonks gas needs 0 <= a*rho < 1")
    if rho == 0:
        return {"z": 0.0, "beta_p": 0.0, "beta_f": 0.0}
    w = u / (1 - u)
    z = rho / (1 - u) * math.exp(w)
    beta_p = rho / (1 - u)
    beta_f = rho * math.log(rho / (1 - u)) - rho
    return {"z": z, "beta_p": beta_p, "beta_f": beta_f}


# ---------------------------------------------------------------------------
# Exact 1D irreducible integrals


def _overlap_length_1d(r01, r02, r12):
    """Exact area of {|x1| < r01, |x2| < r02, |x1 - x2| < r12} in the plane.

    The inner length in x2 is piecewise linear in x1; integrating it by
    trapezoids between its breakpoints is exact.  Rational in, rational out.
    """
    r01, r02, r12 = Fraction(r01), Fraction(r02), Fraction(r12)

    def inner(x1):
        lo = max(-r02, x1 - r12)
        hi = min(r02, x1 + r12)
        return hi - lo if hi > lo else Fraction(0)

    pts = sorted(
        {
            p
            for p in (
                -r01, r01, r02 - r12, r12 - r02, r02 + r12, -r02 - r12
            )
            if -r01 <= p <= r01
        }
    )
    total = Fraction(0)
    for lo, hi in zip(pts, pts[1:]):
        total += (inner(lo) + inner(hi)) * (hi - lo) / 2
    return total


def _cells_sum(n):
    """sum over unit cells of D_(n+1) for 1D hard rods at exclusion 1.

    Write x_i = n_i + t_i with integer n_i and distinct fractional parts t_i;
    on each cell (integer parts + ordering of the t's) the overlap pattern,
    hence D, is constant: pair (0,i) overlaps iff n_i in {-1,0}; pair (i,j)
    overlaps iff n_i = n_j, or |n_i - n_j| = 1 with the fractional parts
    ordered the right way.  Each cell has volume 1/n!.
    """
    m = n + 1
    table = hard_core_d_table(m)
    pairs = pair_order(m)
    total = 0
    for nvec in product(range(-n, n), repeat=n):
        for perm in permutations(range(n)):
            rank = [0] * n
            for pos, coord in enumerate(perm):
                rank[coord] = pos
            mask = 0
            for idx, (u, v) in enumerate(pairs):
                if u == 0:
                    hit = nvec[v - 1] in (-1, 0)
                else:
                    diff = nvec[u - 1] - nvec[v - 1]
                    if diff == 0:
                        hit = True
                    elif diff == 1:
                        hit = rank[u - 1] < rank[v - 1]
                    elif diff == -1:
                        hit = rank[u - 1] > rank[v - 1]
                    else:
                        hit = False
                if hit:
                    mask |= 1 << idx
            total += int(table[mask])
    return total


def beta_n_exact_1d(a, n):
    """Exact beta_n for 1D hard rods of exclusion a, n <= 3.

    n = 1 is an interval length, n = 2 the exact piecewise area of the
    triple-overlap region, n = 3 exact unit-cell counting of D_4.
    """
    if not 1 <= n <= 3:
        raise CapabilityError("exact 1D route covers n <= 3")
    a = Fraction(a) if not isinstance(a, float) else a
    if n == 1:
        return -2 * a
    if n == 2:
        return -Fraction(1, 2) * _overlap_length_1d(1, 1, 1) * a * a
    return Fraction(_cells_sum(n), math.factorial(n) ** 2) * a**n


# ---------------------------------------------------------------------------
# Monte Carlo irreducible integrals (d = 2, 3)


def beta_n_mc(model, n, samples, seed, threads=1):
    """MC estimate of beta_n: sample x_1..x_n uniformly in the box reachable
    by overlap chains from the pinned particle, evaluate D_(n+1) from the
    overlap pattern, and average with the volume factor over 64 batches of
    ``kernels.mc_batches`` (stream 0), so a fixed seed gives bit-identical
    results for any thread count; stderr is over batch means.
    """
    if model.d > 3:
        raise CapabilityError("MC route covers d in {2, 3}")
    if model.d not in (2, 3):
        raise DomainError("MC route covers d in {2, 3}")
    if not 1 <= n <= 3:
        raise CapabilityError("MC route covers n <= 3")
    batches = 64
    m = n + 1
    table = hard_core_d_table(m)
    r_ex = float(model.exclusion)
    r2 = np.full((m, m), r_ex * r_ex)
    # in a biconnected overlap graph every vertex sits on a cycle through the
    # pinned one, so its graph distance is at most floor(m/2) overlap steps
    half = (m // 2) * r_ex
    vol_factor = (2.0 * half) ** (model.d * n)

    def batch_value(rng, per_batch):
        xs = rng.uniform(-half, half, size=(per_batch, n, model.d))
        s = mc_mask_sum(xs, r2, table)
        return vol_factor * (s / per_batch) / math.factorial(n)

    value, stderr = mc_batches(batch_value, seed, samples, batches, threads)
    return MCEstimate(
        value=value,
        stderr=stderr,
        samples=samples // batches * batches,
        batches=batches,
    )


def virial_table(model, n_max, samples=200_000, seed=0, threads=1):
    """Rows (n, beta_n, method, stderr) using the best route per model."""
    rows = []
    if model.kind == "ideal":
        return [VirialRow(n, 0, "analytic") for n in range(1, n_max + 1)]
    for n in range(1, n_max + 1):
        if model.d == 1:
            rows.append(VirialRow(n, beta_n_exact_1d(model.exclusion, n), "exact_1d"))
        elif n == 1:
            rows.append(VirialRow(1, -model.c_bar, "analytic"))
        else:
            est = beta_n_mc(model, n, samples, seed, threads=threads)
            rows.append(VirialRow(n, est.value, "mc", est.stderr))
    return rows


# ---------------------------------------------------------------------------
# Constants and radii


def k_constant():
    """max over w in [0,1] of (2e^-w - 1) w, located by bracketing the
    first-order condition 2e^-w (1 - w) = 1 with ``_brentq`` at xtol 1e-14.
    Pure Python: the bounds table loads no scipy module."""
    w = _brentq(lambda t: 2.0 * math.exp(-t) * (1.0 - t) - 1.0, 0.0, 1.0, 1e-14)
    return (2.0 * math.exp(-w) - 1.0) * w


def r_star(model):
    """Activity radius (1/(2e)) / (c_bar e^{beta(B + B*)})."""
    cb = float(model.c_bar)
    if cb <= 0:
        raise DomainError("exclusion integral must be positive")
    return INV_2E / (cb * math.exp(model.beta * (model.B + model.Bstar)))


def r_lp(model, B_bar):
    """Previous-best activity radius k / (c_bar e^{beta B_bar})."""
    cb = float(model.c_bar)
    if cb <= 0:
        raise DomainError("exclusion integral must be positive")
    return k_constant() / (cb * math.exp(model.beta * B_bar))


def tree_fn_T(s):
    """The rooted-tree generating function: the solution of T = s e^T that
    is the sum of n^(n-1) s^n / n!, on [0, 1/e] with T(1/e) = 1.

    Newton iteration seeded by the partial series handles the interior; at
    the endpoint the Jacobian 1 - s e^T degenerates, so the last 1e-4 of the
    interval uses the expansion in p = sqrt(2(1 - e s)) instead.
    """
    if s < 0 or s > (1.0 + 1e-12) / math.e:
        raise DomainError("tree function needs 0 <= s <= 1/e")
    if s == 0:
        return 0.0
    gap = 1.0 - math.e * min(s, 1.0 / math.e)
    if gap < 1e-4:
        p = math.sqrt(max(0.0, 2.0 * gap))
        return (
            1.0
            - p
            + p**2 / 3.0
            - 11.0 * p**3 / 72.0
            + 43.0 * p**4 / 540.0
            - 769.0 * p**5 / 17280.0
            + 221.0 * p**6 / 8505.0
        )
    T = left_sum(n ** (n - 1) * s**n / math.factorial(n) for n in range(1, 21))
    for _ in range(60):
        g = T - s * math.exp(T)
        if abs(g) < TREE_FN_TOL:
            break
        T -= g / (1.0 - s * math.exp(T))
    return T


def _div(a, b):
    """a / b as C divides doubles: a zero divisor gives a signed infinity,
    or NaN for 0/0, where Python raises ZeroDivisionError."""
    if b:
        return a / b
    if a != a or not a:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _brentq(f, a, b, xtol):
    """A root of f bracketed by [a, b], by Brent's method.

    This is scipy's C ``brentq`` (rtol = 4 eps, 100 iterations) ported
    operation for operation, so it returns the same float; ``_div`` keeps
    C's division by zero.  As in scipy, a NaN value of f or f(a), f(b) of
    one sign raise ValueError, and no convergence raises RuntimeError.
    """

    def call(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(fx)

    def signbit(v):
        return math.copysign(1.0, v) < 0

    rtol = 4 * sys.float_info.epsilon
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def _bounded_min(fn, top):
    """The minimum of fn over [1e-12 top, top] as (x, fn(x)).

    Brent's bounded search: golden-section steps, with parabolic steps once
    they are acceptable, until the bracket is within xatol = 1e-12 plus
    sqrt(eps)|x|, or after 500 evaluations.  This is scipy's
    ``_minimize_scalar_bounded`` ported operation for operation, so x and
    fn(x) are the floats scipy returns.  Python floats overflow to inf
    without a warning, which near the float range the search's own
    interpolation steps do harmlessly.
    """
    xatol = 1e-12
    a, b = 1e-12 * top, top
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if a > b:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))

    def direction(v):
        """np.sign(v) + (v == 0): +1 at zero, NaN at NaN."""
        return -1.0 if v < 0 else 1.0 if v >= 0 else v

    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = fn(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabolic fit through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * direction(xm - xf)
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + direction(rat) * max(abs(rat), tol1)
        fu = fn(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf, fx


def lp_chain(model):
    """Numeric maximum of r e^{-T(c_bar r)} over (0, 1/(e c_bar)], compared
    to the closed form 1/(2e c_bar)."""
    cb = float(model.c_bar)
    if cb <= 0:
        raise DomainError("exclusion integral must be positive")
    top = 1.0 / (math.e * cb)
    argmax, fun = _bounded_min(lambda r: -r * math.exp(-tree_fn_T(cb * r)), top)
    return {
        "sup": -fun,
        "argmax": argmax,
        "closed_form": 1.0 / (2.0 * math.e * cb),
    }


def banach_compare(M, r_max):
    """Compare the two small-ball radii built from a modulus M:

        P  = (1/8) sup_r r e^{-M(r)}        over 0 < r <= r_max
        P' = sup_b e^{-b} sup{s : M(s e^b) <= b}   over 0 < b <= M(r_max)

    by nested bracketed maximization; returns both and the ratio P'/P.
    """
    grid = np.linspace(0.0, r_max, 33)
    vals = [float(M(r)) for r in grid]
    if abs(vals[0]) > 1e-12 or vals[-1] <= 0 or any(
        b < a - 1e-12 for a, b in zip(vals, vals[1:])
    ):
        raise DomainError("modulus must be increasing with M(0) = 0")

    _, fun_p = _bounded_min(lambda r: -r * math.exp(-float(M(r))), r_max)
    P = 0.125 * (-fun_p)

    b_max = float(M(r_max))

    def inv_M(b):
        if b >= b_max:
            return r_max
        return _brentq(lambda r: float(M(r)) - b, 0.0, r_max, 1e-14)

    _, fun_pp = _bounded_min(lambda b: -math.exp(-b) * inv_M(b), b_max)
    P_prime = -fun_pp
    return {"P": P, "P_prime": P_prime, "ratio": P_prime / P}


@dataclass
class NeighborhoodRadii:
    inner: float
    outer: float
    r_star: float
    ordered: bool  # whether inner < r_star < outer held numerically


def neighborhood_radii(model):
    """Density-side inner/outer radii around the origin:

        inner = e^{-1 - 2/e} / (c_bar e^{beta(B+B*)}),
        outer = 1/(2 sqrt e) / (c_bar e^{beta(B+B*)}).
    """
    cb = float(model.c_bar)
    if cb <= 0:
        raise DomainError("exclusion integral must be positive")
    denom = cb * math.exp(model.beta * (model.B + model.Bstar))
    inner = math.exp(-1.0 - 2.0 / math.e) / denom
    outer = 1.0 / (2.0 * math.sqrt(math.e)) / denom
    if not outer < math.inf:
        raise OverflowError("neighborhood radii exceed the float range")
    rs = r_star(model)
    return NeighborhoodRadii(inner, outer, rs, inner < rs < outer)


def bounds_report(model, B_bar=0.0):
    """Rows (name, value, formula) for the bounds table."""
    cb = float(model.c_bar)
    if cb > 0 and 5.0 / cb == math.inf:
        raise OverflowError("the Banach search radius 5/c_bar is not finite")
    if cb > 0 and 1.0 / (2.0 * math.e * cb) < sys.float_info.min:
        # the searches of lp_chain and banach_compare run on radii of order
        # 1/c_bar; subnormal ones have lost bits, and those rows would be wrong
        raise OverflowError("the search radius 1/(2e c_bar) is subnormal")
    rs = r_star(model)
    lp = lp_chain(model)
    bc = banach_compare(lambda r: cb * r, 5.0 / cb)
    nb = neighborhood_radii(model)
    return [
        ("k", k_constant(), "max_w (2exp(-w)-1)w"),
        ("one_over_2e", INV_2E, "1/(2e)"),
        ("r_star", rs, "(1/(2e))/(cbar exp(beta(B+B*)))"),
        ("r_lp", r_lp(model, B_bar), "k/(cbar exp(beta Bbar))"),
        ("nbhd_inner", nb.inner, "exp(-1-2/e)/(cbar exp(beta(B+B*)))"),
        ("nbhd_outer", nb.outer, "(1/(2 sqrt e))/(cbar exp(beta(B+B*)))"),
        ("lp_sup", lp["sup"], "sup_r r exp(-T(cbar r))"),
        ("lp_closed_form", lp["closed_form"], "1/(2e cbar)"),
        ("banach_ratio", bc["ratio"], "P'/P for M(r) = cbar r"),
    ]


# ---------------------------------------------------------------------------
# Discretized self-test: three routes to the Tonks virial coefficients


def ring_mayer(a, k):
    """Hard rods of exclusion a on a ring of circumference RING_CELLS * a,
    sampled at k sites per exclusion length.  Sites carry weight h = a/k;
    overlap is ring-distance < a, which reduces to an exact integer
    comparison.
    """
    a = Fraction(a)
    S = RING_CELLS * k
    h = a / k
    space = SpeciesSpace.from_weights([h] * S)
    f = [
        [-1 if min(abs(i - j), S - abs(i - j)) < k else 0 for j in range(S)]
        for i in range(S)
    ]
    return MayerMatrices.from_f(space, f, exact=True)


def grid_beta(a, k, n):
    """beta_n on the ring grid: (1/n!) sum over grid tuples of D_(n+1) h^n,
    evaluated at the site pinned at the origin.  Exact rational; converges
    to the continuum value at first order in h = a/k.
    """
    mayer = ring_mayer(a, k)
    h = Fraction(a) / k
    f, S = mayer.f, mayer.space.size
    total = Fraction(0)
    # a pure hard core of ints: D_(n+1) is the table's int at the overlap mask
    table, pairs = hard_core_d_table(n + 1), pair_order(n + 1)
    for ms in combinations_with_replacement(range(S), n):
        xs = (0,) + ms
        v = int(table[sum(1 << p for p, (i, j) in enumerate(pairs) if f[xs[i]][xs[j]])])
        if v == 0:
            continue
        total += Fraction(v, sym_factor(ms))
    return total * h**n


def hom_inversion_selftest(model=None, N=2, grid_ks=(3, 6, 12)):
    """Check the Tonks beta_n by three routes: equation-of-state inversion
    (symbolic series), exact D-integration, and the ring-grid discretized
    inversion, reporting exact grid errors and their Richardson ratios.
    """
    if model is None:
        model = HomogeneousModel.hard_rod(1)
    if model.kind != "hard_rod" or model.d != 1:
        raise DomainError("self-test is defined for 1D hard rods")
    if N > 3:
        raise CapabilityError("exact route covers N <= 3")
    a = Fraction(model.exclusion)
    betas_eos = tonks_beta_series(a, N)
    betas_exact = [beta_n_exact_1d(a, n) for n in range(1, N + 1)]
    grid_errors = {}
    ratios = {}
    for n in range(1, N + 1):
        errs = [grid_beta(a, k, n) - betas_exact[n - 1] for k in grid_ks]
        grid_errors[n] = errs
        ratios[n] = [
            float(e1 / e2) for e1, e2 in zip(errs, errs[1:]) if e2 != 0
        ]
    rho = Fraction(1, 5) / a
    z_series = float(rho) * math.exp(
        -left_sum(float(b) * float(rho) ** n for n, b in enumerate(betas_eos, start=1))
    )
    z_oracle = tonks_oracle(float(a), float(rho))["z"]
    return {
        "a": a,
        "N": N,
        "betas_eos": betas_eos,
        "betas_exact": betas_exact,
        "eos_matches_exact": betas_eos == betas_exact,
        "grid_ks": tuple(grid_ks),
        "grid_errors": grid_errors,
        "richardson_ratios": ratios,
        "z_series_minus_oracle": z_series - z_oracle,
        "rows": [
            VirialRow(n, betas_eos[n - 1], "eos_inversion") for n in range(1, N + 1)
        ],
    }
