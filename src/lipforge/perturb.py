"""Local linearization of a 1-Lipschitz mapping near a separated point set.

Given a certified 1-Lipschitz f, a uniformly separated set of interior
points, a target operator L with ||L|| <= 1 - r and a budget r, this builds
a new certified 1-Lipschitz g with ||g - f|| < r that is exactly affine with
derivative L on a small ball around every point of the set:

    g(x + u) = g(x) + L u        for ||u|| <= alpha and every center x.

The construction stages two patched layers around each center x:

* a warp layer that freezes the input: inside radius s the input is pulled
  radially so that the ball of radius beta collapses onto x, making the
  composed mapping constant there;
* an affine layer that plants base + T(z - x) inside radius beta, ramped
  to the constant value between alpha and beta, with T = s/(s-beta) * L;

followed by a global rescale by (s-beta)/s, which restores the Lipschitz
constant to one and turns the planted slope T back into exactly L.

All scalar parameters are computed in mpmath arithmetic (exact values far
below float64 range occur after a few rounds of the ball game) and the
formulas are:

    beta  = r s / (4 (1 + diam Q)),
    alpha = r^2 s / (16 (1 + diam Q)^2) = beta^2 / s,
    rho   = beta diam / (s - beta) + 2 beta   (analytic bound on ||g - f||).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .lipfun import (
    Affine,
    LipFun,
    Precompose,
    Scale,
    add_const,
    eval_point,
    identity,
    patch,
    radial_blend,
    shift_conjugate,
    zero_map,
)
from .numerics import (
    CONSTRUCTION_DPS,
    LIP_ONE_TOL,
    LipForgeError,
    Scalar,
    as_vector,
    exact_mpf,
)
from .space import Domain, LinearMap
from .nets import separation


@dataclass(frozen=True)
class PerturbParams:
    """Scalar parameters of one linearization (exact binary rationals)."""

    r: Scalar
    s: Scalar
    beta: Scalar
    alpha: Scalar
    blow_up: Scalar
    diam_q: Scalar

    def validate(self) -> None:
        """Check the bounds at the working precision the parameters were
        rounded at, with a relative slack of 2^10 units in the last place."""
        slack = 1 + mp.ldexp(1, 10 - mp.prec)
        if not (0 < self.beta < self.s / 2):
            raise LipForgeError("beta outside (0, s/2)")
        if self.alpha > self.beta**2 / self.s * slack:
            raise LipForgeError("alpha exceeds beta^2/s")
        bound = self.r * self.s / (4 * (1 + self.diam_q))
        if self.beta > bound * slack:
            raise LipForgeError("beta exceeds its admissible bound")
        if not self.alpha < self.r:
            raise LipForgeError("alpha must stay below r")


def choose_s(points: np.ndarray, domain: Domain) -> float:
    """Largest admissible warp radius: the set must be 4s-separated with
    boundary margin at least 4s, capped below one."""
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise LipForgeError("point set is empty")
    sep = separation(pts, domain.norm)
    if sep == 0.0:
        raise LipForgeError("zero separation in point set")
    margin = float(domain.margins(pts).min())
    if margin < 0.0:
        raise LipForgeError("point outside domain")
    if margin <= 0.0:
        raise LipForgeError("zero boundary margin in point set")
    s = min(0.99, sep / 4.0, margin / 4.0)
    return float(s)


def blend_params(r: Scalar, s: Scalar, diam_q: Scalar, dps: int = CONSTRUCTION_DPS) -> PerturbParams:
    """Evaluate the closed-form parameters; inputs may be float or mpf."""
    if not (r > 0 and r < 1):
        raise LipForgeError("r must lie in (0, 1)")
    if not (s > 0 and s < 1):
        raise LipForgeError("s must lie in (0, 1)")
    if not diam_q > 0:
        raise LipForgeError("diameter must be positive")
    with mp.workdps(dps):
        rr, ss, dd = exact_mpf(r), exact_mpf(s), exact_mpf(diam_q)
        beta = rr * ss / (4 * (1 + dd))
        alpha = rr**2 * ss / (16 * (1 + dd) ** 2)
        blow_up = ss / (ss - beta)
        params = PerturbParams(rr, ss, beta, alpha, blow_up, dd)
        params.validate()
        return params


@dataclass(frozen=True)
class PerturbResult:
    """Outcome of linearize_near; iterable as the (g, alpha) pair."""

    fun: LipFun
    alpha: Scalar
    params: PerturbParams
    rho_bound: Scalar
    shift: np.ndarray

    def __iter__(self):
        yield self.fun
        yield self.alpha


def linearize_near(
    f: LipFun,
    points: np.ndarray,
    operator: LinearMap,
    r: Scalar,
    domain: Domain,
    dps: int = CONSTRUCTION_DPS,
) -> PerturbResult:
    """Make f exactly affine with derivative `operator` near every point.

    Preconditions: lip_cert(f) <= 1, ||operator|| <= 1 - r, and the points
    are uniformly separated interior points of the domain. The returned
    mapping g satisfies, exactly by construction,

        g(x + u) = g(x) + operator @ u   for all centers x, ||u|| <= alpha,

    together with the certified bounds lip_cert(g) <= 1 and
    ||g - f||_sup <= rho_bound < r.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise LipForgeError("point set is empty")
    d = domain.dim
    if pts.shape[1] != d or f.in_dim != d:
        raise LipForgeError("dimension mismatch between mapping, points and domain")
    if operator.in_dim != d or operator.out_dim != f.out_dim:
        raise LipForgeError("operator dimensions do not match the mapping")
    if f.lip_cert > 1.0 + LIP_ONE_TOL:
        raise LipForgeError("mapping is not certified 1-Lipschitz")
    if not r > 0:
        raise LipForgeError("budget r must be positive")

    with mp.workdps(dps):
        r_mp = exact_mpf(r)
        if r_mp >= 1:
            raise LipForgeError("budget r must lie in (0, 1)")
        if exact_mpf(operator.op_norm) > 1 - r_mp + exact_mpf(1e-12):
            raise LipForgeError("operator too large: need op_norm <= 1 - r")

        s = choose_s(pts, domain)
        params = blend_params(r_mp, s, domain.diam(), dps=dps)
        s_mp, beta, alpha = params.s, params.beta, params.alpha

        # Normalization shift: the construction assumes the mapping vanishes
        # somewhere on the point set; shift by the value at the first center.
        order = sorted(range(len(pts)), key=lambda i: tuple(pts[i]))
        x0 = pts[order[0]]
        p_shift = eval_point(f, as_vector([exact_mpf(v) for v in x0]))
        f_shift = add_const(f, as_vector([-exact_mpf(v) for v in p_shift]))

        # Warp layer: freeze the input on the beta-ball around each center.
        warp = radial_blend(beta, s_mp, zero_map(d, d), identity(d, domain.norm), domain.norm)
        warp_patches = [(x, s_mp, shift_conjugate(warp, x, domain.norm)) for x in pts]
        P = patch(identity(d, domain.norm), warp_patches, domain)
        g0 = Precompose(f_shift, P)

        # Affine layer: plant base + T (z - x) inside the beta-ball.
        T = operator.scaled(params.blow_up)
        psi = radial_blend(alpha, beta, identity(d, domain.norm), zero_map(d, d), domain.norm)
        affine_patches = []
        for x in pts:
            x_exact = as_vector([exact_mpf(v) for v in x])
            base = eval_point(f_shift, x_exact)
            h_x = Affine(base, T, x_exact)
            inner = Precompose(h_x, shift_conjugate(psi, x, domain.norm))
            affine_patches.append((x, beta, inner))
        try:
            g1 = patch(g0, affine_patches, domain)
        except LipForgeError as e:
            raise LipForgeError(f"{e} in the affine layer, whose constants are rounded at dps {dps}") from e

        g2 = Scale((s_mp - beta) / s_mp, g1)
        g = add_const(g2, p_shift)

        rho_bound = beta * exact_mpf(params.diam_q) / (s_mp - beta) + 2 * beta
        if not rho_bound < r_mp:
            raise LipForgeError("analytic distance bound failed to stay below r")
        if g.lip_cert > 1.0 + LIP_ONE_TOL:
            raise LipForgeError("construction lost the certified Lipschitz bound")
        return PerturbResult(g, alpha, params, rho_bound, np.asarray(p_shift))
