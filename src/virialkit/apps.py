"""Worked settings built on the inversion engine.

* grid inversion: recover an external potential from a target density on a
  finite grid, with the combined-condition certificate gating the answer;
* hard-sphere mixtures: activities from densities with closed-form pair and
  triangle integrals (overlap volumes) and Monte Carlo triples;
* rods with discrete orientations: truncated free-energy functional with a
  term-by-term breakdown;
* the unbounded-mixture demo: a closed-form inversion that no unweighted
  fixed-point argument covers, handled by a linear weight.

Positions/cells become species; densities are measured per unit volume and
the cell volumes enter as quadrature weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .certs import BoundCertificate, certify, check_weights
from .errors import CapabilityError, CertificateError, DomainError, StructureError, required_fields
from .fps import left_sum, measure_sums, sym_factor
from .graphs import hard_core_d_table
from .homogeneous import INV_2E, _overlap_length_1d, vol_ball
from .inversion import GCState, check_Sab
from .kernels import mc_batches, mc_mask_sum, mc_rod_mask_sum
from .species import (
    PairPotential,
    Species,
    SpeciesSpace,
    _potential_matrix_from_kind,
    load_doc,
    parse_dimension,
    parse_measure,
    parse_scalar,
)


# ---------------------------------------------------------------------------
# Grid inversion


@dataclass
class GridProfile:
    points: list          # positions (numbers in 1D, vectors beyond)
    cell_volumes: list
    rho: list             # target density per point
    z0: float = 1.0

    def __post_init__(self):
        n = len(self.points)
        if not (len(self.cell_volumes) == len(self.rho) == n):
            raise StructureError("points, cell_volumes, rho must align")
        if any(v <= 0 for v in self.cell_volumes):
            raise DomainError("cell volumes must be positive")
        if any(r < 0 for r in self.rho):
            raise DomainError("target density must be non-negative")
        if not self.z0 > 0:
            raise DomainError("z0 must be positive")

    @classmethod
    def from_json(cls, source):
        doc = load_doc(source)
        with required_fields("model"):
            points = doc["points"]
            if not isinstance(points, list):
                raise StructureError("points must be a list")
            return cls(
                # a point is a number in one dimension, a list of numbers beyond
                points=[
                    parse_measure(p, name="point") if isinstance(p, list) else parse_scalar(p)
                    for p in points
                ],
                cell_volumes=parse_measure(doc["cell_volumes"], name="cell_volumes"),
                rho=parse_measure(doc["rho"], name="rho"),
                z0=parse_scalar(doc.get("z0", 1.0)),
            )


def profile_state(gp, pot_kernel, N, beta=1.0):
    """Build the grid GCState: points become species with the cell volumes
    as quadrature weights and the pair kernel evaluated between points."""
    if not isinstance(pot_kernel, dict):
        raise StructureError("kernel must be an object")
    S = len(gp.points)
    if N >= 3 and S > 10:
        raise CapabilityError("grid inversion at N >= 3 is limited to 10 points")
    space = SpeciesSpace(
        Species(i, gp.cell_volumes[i], {"position": gp.points[i]})
        for i in range(S)
    )
    with required_fields("model"):
        v = _potential_matrix_from_kind(space, pot_kernel["kind"], pot_kernel.get("params", {}))
    pot = PairPotential(space, beta, v)
    return GCState(space, pot=pot, N=N)


def invert_profile(gp, pot_kernel, N, beta=1.0):
    """External potential reproducing a target density on the grid:

        beta V(q) = log z0 - log rho(q)
                    + sum_{n<=N} (1/n!) sum_x D_(n+1)(q, x) rho^n

    (quadrature-weighted).  Requires the combined certificate on rho; a
    failing certificate refuses with its margins.  rho(q) = 0 gives
    V(q) = +inf; a finite beta V(q) whose V(q) leaves the double range (a
    tiny beta) raises OverflowError.  Uniqueness holds within the certified
    class only.
    """
    st = profile_state(gp, pot_kernel, N, beta=beta)
    cert = check_Sab(st, gp.rho)
    if not cert.passed:
        raise CertificateError(
            "density profile fails the combined activity condition; "
            f"worst margin {cert.worst_margin:.4g}",
            certificate=cert,
        )
    log_z0 = math.log(gp.z0)
    tails = measure_sums(st.d_family, tuple(gp.rho), start=1)
    beta_v = []
    for q in range(st.space.size):
        if gp.rho[q] == 0:
            beta_v.append(math.inf)
            continue
        beta_v.append(log_z0 - math.log(float(gp.rho[q])) + float(tails[q]))
    v_ext = []
    for bv in beta_v:
        v = bv / beta
        if math.isinf(v) and math.isfinite(bv):
            raise OverflowError(f"V = beta V / beta leaves the double range at beta = {beta}")
        v_ext.append(v)
    return {
        "beta_v": beta_v,
        "v_ext": v_ext,
        "certificate": cert,
        "notes": "unique within the class of potentials passing this certificate",
    }


# ---------------------------------------------------------------------------
# Hard-sphere mixtures


@dataclass
class MixtureSpec:
    radii: list
    d: int
    rho: list
    a: list = None
    b: list = None

    def __post_init__(self):
        if len(self.radii) != len(self.rho):
            raise StructureError("radii and rho must align")
        if any(r <= 0 for r in self.radii):
            raise DomainError("radii must be positive")
        if any(r < 0 for r in self.rho):
            raise DomainError("densities must be non-negative")
        check_weights(len(self.radii), self.a, self.b)

    @classmethod
    def from_json(cls, source):
        doc = load_doc(source)
        a, b = (None if doc.get(k) is None else parse_measure(doc[k], name=k) for k in "ab")
        with required_fields("model"):
            return cls(
                radii=parse_measure(doc["radii"], name="radii"),
                d=parse_dimension(doc["d"]),
                rho=parse_measure(doc["rho"], name="rho"),
                a=a,
                b=b,
            )


def _angle_term(phi):
    """phi - sin(phi) for 0 <= phi <= 2 pi; a Taylor sum below 1, where the
    difference would cancel."""
    if phi > 1.0:
        return phi - math.sin(phi)
    t = phi * phi
    acc = 0.0
    for k in range(19, 1, -2):
        acc = 1.0 / math.factorial(k) - t * acc
    return phi * t * acc


def triangle_integral(d, r01, r02, r12):
    """vol{ |x1| < r01, |x2| < r02, |x1 - x2| < r12 } in (R^d)^2.

    Exact piecewise rational in one dimension; closed forms in two and three.
    The volume is symmetric in the three radii, so they are sorted first,
    x >= y >= z.  When x >= y + z the largest constraint is implied and the
    volume is that of two balls, vol(y) vol(z).  Otherwise x, y, z are the
    sides of a triangle; with theta_pq its angle between sides p and q,

        d = 2:  (pi/2) sum_pairs (p q)^2 (2 theta_pq - sin 2 theta_pq)
        d = 3:  (pi^2/18) (sum_p p^6 - 9 sum_{p != q} p^4 q^2
                           + 16 sum_pairs (p q)^3 + 18 (x y z)^2)

    (radial integration of the lens volume, by parts).  The d = 3
    polynomial is summed exactly in Fractions and rounded once.  In d = 2
    every term is non-negative, the angles come from atan2 of the doubled
    triangle area with the cosine numerators in cancellation-free form, and
    x - y is exact whenever the triangle is not degenerate.
    """
    if d == 1:
        return _overlap_length_1d(r01, r02, r12)
    if d == 3:
        z, y, x = sorted(map(Fraction, (r01, r02, r12)))
        if x >= y + z:
            p = Fraction(16, 9) * (y * z) ** 3
        else:
            x2, y2, z2 = x * x, y * y, z * z
            p = (
                x2**3 + y2**3 + z2**3
                - 9 * (x2 * x2 * (y2 + z2) + y2 * y2 * (x2 + z2) + z2 * z2 * (x2 + y2))
                + 16 * ((x * y) ** 3 + (x * z) ** 3 + (y * z) ** 3)
                + 18 * x2 * y2 * z2
            ) / 18
        return float(p) * math.pi**2
    if d != 2:
        raise CapabilityError("triangle integrals implemented for d <= 3")
    z, y, x = sorted(map(float, (r01, r02, r12)))
    e = x - y
    if z - e <= 0:
        return math.pi**2 * (y * z) ** 2
    s = math.sqrt((z - e) * (x + y + z) * (z + e) * (x + (y - z)))  # 4 * area
    return (math.pi / 2) * (
        (x * y) ** 2 * _angle_term(2 * math.atan2(s, x * x + (y - z) * (y + z)))
        + (x * z) ** 2 * _angle_term(2 * math.atan2(s, z * z + e * (x + y)))
        + (y * z) ** 2 * _angle_term(2 * math.atan2(s, z * z - e * (x + y)))
    )


def _mixture_margins(ms, a, b):
    K = len(ms.radii)
    return tuple(
        float(a[k])
        - left_sum(
            float(ms.rho[l])
            * vol_ball(ms.d, ms.radii[k] + ms.radii[l])
            * math.exp(float(a[l]) + float(b[l]))
            for l in range(K)
        )
        for k in range(K)
    )


def _mc_mixture_triple(ms, k, combo, samples, seed, stream, threads):
    """MC estimate and stderr of integral of D_4(0^(k), x^(l1), x^(l2), x^(l3)),
    over 32 batches of ``kernels.mc_batches`` on the given stream."""
    radii = ms.radii
    specs = (k,) + combo
    m = 4
    table = hard_core_d_table(m)
    r2 = np.array(
        [[(radii[u] + radii[v]) ** 2 for v in specs] for u in specs], dtype=float
    )
    rmax = max(radii[u] + radii[v] for u in specs for v in specs)
    half = 3.0 * rmax
    vol_factor = (2.0 * half) ** (ms.d * 3)

    def batch_value(rng, per_batch):
        xs = rng.uniform(-half, half, size=(per_batch, 3, ms.d))
        return vol_factor * (mc_mask_sum(xs, r2, table) / per_batch)

    return mc_batches(batch_value, seed, samples, 32, threads, stream)


def invert_mixture(ms, N, samples=100_000, seed=0, threads=1):
    """Activities z_k of a hard-sphere mixture from target densities:

        log(z_k / rho_k) = -sum_{n<=N} (1/n!) sum_l I_n(k; l) rho_l...

    with the spatial integrals in closed form for n <= 2 (overlap and
    triangle volumes, see ``triangle_integral``) and Monte Carlo for n = 3.
    Refuses when the mixture activity condition fails, reporting
    per-species margins.
    """
    if N > 3:
        raise CapabilityError("mixture integrals implemented through order 3")
    K = len(ms.radii)
    cert = certify("mix_ab", lambda rows: [_mixture_margins(ms, a, b) for a, b in rows], K, a=ms.a, b=ms.b)
    if not cert.passed:
        raise CertificateError(
            "mixture densities fail the activity condition; "
            f"worst margin {cert.worst_margin:.4g}",
            certificate=cert,
        )
    radii = ms.radii
    rho = ms.rho
    mc_rows = []
    out = []
    stream = 0
    for k in range(K):
        log_ratio = 0.0
        if N >= 1:
            log_ratio -= left_sum(
                -vol_ball(ms.d, radii[k] + radii[l]) * float(rho[l]) for l in range(K)
            )
        if N >= 2:
            for combo in combinations_with_replacement(range(K), 2):
                i2 = -triangle_integral(
                    ms.d,
                    radii[k] + radii[combo[0]],
                    radii[k] + radii[combo[1]],
                    radii[combo[0]] + radii[combo[1]],
                )
                term = float(i2)
                for l in combo:
                    term *= float(rho[l])
                log_ratio -= term / sym_factor(combo)
        if N >= 3:
            for combo in combinations_with_replacement(range(K), 3):
                est, err = _mc_mixture_triple(
                    ms, k, combo, samples, seed, stream, threads
                )
                stream += 1
                term = est
                for l in combo:
                    term *= float(rho[l])
                log_ratio -= term / sym_factor(combo)
                mc_rows.append((k, combo, est, err))
        out.append(float(rho[k]) * math.exp(log_ratio))
    return {"z": out, "certificate": cert, "mc_integrals": mc_rows}


# ---------------------------------------------------------------------------
# Rods with discrete orientations


@dataclass
class RodSystem:
    rho0: float
    length: float
    angles: list
    probs: list

    def __post_init__(self):
        if len(self.angles) != len(self.probs):
            raise StructureError("angles and probs must align")
        if any(p < 0 for p in self.probs):
            raise DomainError("orientation probabilities must be non-negative")
        if abs(left_sum(self.probs) - 1.0) > 1e-9:
            raise DomainError("orientation probabilities must sum to 1")
        if self.rho0 < 0 or self.length <= 0:
            raise DomainError("need rho0 >= 0 and positive length")

    @classmethod
    def from_json(cls, source):
        doc = load_doc(source)
        with required_fields("model"):
            return cls(
                rho0=parse_scalar(doc["rho0"]),
                length=parse_scalar(doc["length"]),
                angles=parse_measure(doc["angles"], name="angles"),
                probs=parse_measure(doc["probs"], name="probs"),
            )


def rod_excluded_area(L, gamma):
    """Excluded area of two thin rods of length L at relative angle gamma."""
    return L * L * abs(math.sin(gamma))


def rods_free_energy(rs, N=2, samples=100_000, seed=0, threads=1):
    """Truncated free energy per volume of thin rods at overall density rho0
    with discrete orientation probabilities:

        ideal + orientation entropy
        - sum_{2<=n<=N} (rho0^n / n!) sum over orientation tuples of
          (spatial integral of D_n) prod p

    The pair term uses the exact excluded area; the triple term is MC.
    Refuses when rho0 sup_sigma sum_tau p(tau) excl(sigma,tau) > 1/(2e).
    """
    if N > 3:
        raise CapabilityError("rod free energy implemented through order 3")
    L = rs.length
    worst = max(
        left_sum(
            p * rod_excluded_area(L, a1 - a2)
            for a2, p in zip(rs.angles, rs.probs)
        )
        for a1 in rs.angles
    )
    if not math.isfinite(worst):
        # L^2 overflowed; inf * sin(0) would make the margin NaN
        raise OverflowError(f"rod excluded-area supremum is {worst}")
    margin = INV_2E - rs.rho0 * worst
    cert = BoundCertificate("rod_2e", (margin,), extras={"sup": worst})
    if not cert.passed:
        raise CertificateError(
            f"rho0 violates the 1/(2e) rod condition by {-margin:.4g}",
            certificate=cert,
        )
    rho0 = rs.rho0
    ideal = rho0 * (math.log(rho0) - 1.0) if rho0 > 0 else 0.0
    entropy = rho0 * left_sum(p * math.log(p) for p in rs.probs if p > 0)
    terms = {"ideal": ideal, "orientation_entropy": entropy}
    if N >= 2:
        pair = 0.0
        for s, ps in zip(rs.angles, rs.probs):
            for t, pt in zip(rs.angles, rs.probs):
                pair += ps * pt * rod_excluded_area(L, s - t)
        terms["order2"] = 0.5 * rho0 * rho0 * pair
    if N >= 3:
        table = hard_core_d_table(3)
        total = 0.0
        err_acc = 0.0
        half = 2.0 * L
        vol_factor = (2.0 * half) ** 4
        combos = combinations_with_replacement(range(len(rs.angles)), 3)
        for stream, combo in enumerate(combos):
            angles = np.array([rs.angles[i] for i in combo])

            def batch_value(rng, per_batch):
                centers = rng.uniform(-half, half, size=(per_batch, 2, 2))
                return vol_factor * (
                    mc_rod_mask_sum(centers, angles, L, table) / per_batch
                )

            mean, err = mc_batches(batch_value, seed, samples, 32, threads, stream)
            pw = 1.0
            for i in combo:
                pw *= rs.probs[i]
            weight = pw / sym_factor(combo)
            total += mean * weight
            err_acc += (err * abs(weight)) ** 2
        terms["order3"] = -(rho0**3) * total
        terms["order3_stderr"] = rho0**3 * math.sqrt(err_acc)
    total = left_sum(v for kk, v in terms.items() if not kk.endswith("_stderr"))
    return {"terms": terms, "total": total, "certificate": cert}


# ---------------------------------------------------------------------------
# Unbounded-mixture demo


def unbounded_mixture_demo(K=3, z1=-0.1, weight_slope=1.0, z_tail=1.0):
    """A countable mixture where activity and density stay close in no
    unweighted norm: the closed-form map

        rho_1 = z_1,   rho_k = z_k exp(-k z_1)   (k >= 2)

    has exact inverse z_k = rho_k exp(k rho_1), and a z_1 < 0 perturbation
    makes |rho_k / z_k| = exp(k |z_1|) grow without bound in k.  A linear
    weight b(k) = c k restores control: |log(rho_k/z_k)| = k|z_1| <= b(k)
    whenever c >= |z_1|.  Returns the table, the weighted-norm margins, and
    a narrative summary.
    """
    z = [z1] + [z_tail] * (K - 1)
    rho = [z[0]] + [z[k] * math.exp(-(k + 1) * z[0]) for k in range(1, K)]
    z_back = [rho[0]] + [rho[k] * math.exp((k + 1) * rho[0]) for k in range(1, K)]
    rows = []
    for k in range(K):
        ratio = abs(rho[k] / z[k]) if z[k] != 0 else float("nan")
        rows.append(
            {"k": k + 1, "z": z[k], "rho": rho[k], "ratio": ratio, "z_back": z_back[k]}
        )
    margins = tuple(
        weight_slope * (k + 1) - (k + 1) * abs(z1) for k in range(K)
    )
    cert = BoundCertificate(
        "weighted_b", margins,
        b=tuple(weight_slope * (k + 1) for k in range(K)),
        notes="b(k) = c k with c = %g" % weight_slope,
    )
    narrative = (
        "The component ratios |rho_k/z_k| = exp(k|z_1|) grow without bound, "
        "so no inversion theorem stated in an unweighted sup or l1 norm can "
        "cover this map; the linear weight b(k) = c k turns the same "
        "distortion into the uniform bound |log(rho_k/z_k)| <= b(k), which "
        "is the form the weighted certificates use."
    )
    roundtrip = max(abs(a - b) for a, b in zip(z, z_back))
    return {
        "rows": rows,
        "certificate": cert,
        "roundtrip_error": roundtrip,
        "narrative": narrative,
    }
