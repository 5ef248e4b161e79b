"""Independent curvature oracle written in sympy.

The metrics of the builtins (and of the benchmark's own spacetime file) are
written out here again by hand, not read through lorentzkit's parser or
catalog. Christoffel symbols, the covariant Riemann tensor and Ricci are
derived symbolically with the conventions stated in lorentzkit.geometry:

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    Rup^i_jkl  = d_k Gamma^i_lj - d_l Gamma^i_kj
                 + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    R_ijkl     = -g_im Rup^m_jkl,   Ric_jk = g^{il} R_ijkl

and then evaluated numerically at the points a check needs. Closed forms of
the perturbation-family certificates are derived symbolically from the
constructions in lorentzkit.perturb.
"""

from __future__ import annotations

import functools

import numpy as np
import sympy as sp

M_SCHW = 1.0          # builtin default mass
H_DS = 1.0            # builtin default de Sitter rate
H_SPEC = 0.5          # rate declared in spacetimes/contracting_desitter.st


def _metric(name: str):
    """(coordinates, metric matrix) of a spacetime, written independently."""
    if name in ("minkowski", "torus_quotient", "null_H_demo"):
        x = sp.symbols("t x1 x2 x3", real=True)
        return x, sp.diag(-1, 1, 1, 1)
    if name == "schwarzschild_ef":
        v, r, th, ph = x = sp.symbols("v r theta phi", real=True)
        f = 1 - 2 * M_SCHW / r
        return x, sp.Matrix([[-f, 1, 0, 0], [1, 0, 0, 0], [0, 0, r**2, 0],
                             [0, 0, 0, r**2 * sp.sin(th)**2]])
    if name == "schwarzschild_static":
        t, r, th, ph = x = sp.symbols("t r theta phi", real=True)
        f = 1 - 2 * M_SCHW / r
        return x, sp.diag(-f, 1 / f, r**2, r**2 * sp.sin(th)**2)
    if name == "flrw_dust":
        x = sp.symbols("s x y z", real=True)
        a2 = x[0] ** sp.Rational(4, 3)
        return x, sp.diag(-1, a2, a2, a2)
    if name in ("desitter", "contracting_desitter"):
        x = sp.symbols("s x y z", real=True)
        rate = H_DS if name == "desitter" else -H_SPEC
        a2 = sp.exp(2 * rate * x[0])
        return x, sp.diag(-1, a2, a2, a2)
    raise KeyError(name)


def christoffel_symbolic(x, g):
    n = len(x)
    ginv = sp.simplify(g.inv())
    dg = [[[sp.diff(g[i, j], x[k]) for j in range(n)] for i in range(n)]
          for k in range(n)]                     # dg[k][i][j] = d_k g_ij
    gam = [[[sp.simplify(sum(ginv[k, l] * (dg[i][j][l] + dg[j][i][l]
                                           - dg[l][i][j])
                             for l in range(n)) / 2)
             for j in range(n)] for i in range(n)] for k in range(n)]
    return ginv, gam


def riemann_symbolic(x, g, ginv, gam):
    n = len(x)
    rup = [[[[sp.diff(gam[i][l][j], x[k]) - sp.diff(gam[i][k][j], x[l])
              + sum(gam[i][k][m] * gam[m][l][j] - gam[i][l][m] * gam[m][k][j]
                    for m in range(n))
              for l in range(n)] for k in range(n)] for j in range(n)]
           for i in range(n)]
    riem = [[[[-sum(g[i, m] * rup[m][j][k][l] for m in range(n))
               for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)]
    ric = [[sum(ginv[i, l] * riem[i][j][k][l]
                    for i in range(n) for l in range(n))
            for k in range(n)] for j in range(n)]
    return riem, ric


class Geometry:
    """Numerical evaluation of the symbolic g, Gamma, Riemann and Ricci."""

    def __init__(self, name: str):
        x, g = _metric(name)
        ginv, gam = christoffel_symbolic(x, g)
        riem, ric = riemann_symbolic(x, g, ginv, gam)
        self.dim = len(x)
        self._g = sp.lambdify([x], g.tolist(), "numpy")
        self._gam = sp.lambdify([x], gam, "numpy")
        self._riem = sp.lambdify([x], riem, "numpy")
        self._ric = sp.lambdify([x], ric, "numpy")

    def _eval(self, fn, p, shape):
        return np.broadcast_to(np.array(fn(np.asarray(p, dtype=float)),
                                        dtype=float), shape).copy()

    def g(self, p) -> np.ndarray:
        return self._eval(self._g, p, (self.dim,) * 2)

    def christoffel(self, p) -> np.ndarray:
        return self._eval(self._gam, p, (self.dim,) * 3)

    def riemann(self, p) -> np.ndarray:
        return self._eval(self._riem, p, (self.dim,) * 4)

    def ricci(self, p) -> np.ndarray:
        return self._eval(self._ric, p, (self.dim,) * 2)

    def kretschmann(self, p) -> float:
        gi = np.linalg.inv(self.g(p))
        r = self.riemann(p)
        up = np.einsum("ai,bj,ck,dl,ijkl->abcd", gi, gi, gi, gi, r)
        return float(np.einsum("abcd,abcd->", up, r))

    def ricci_scalar(self, p) -> float:
        return float(np.einsum("jk,jk->", np.linalg.inv(self.g(p)),
                               self.ricci(p)))


@functools.lru_cache(maxsize=None)
def geometry(name: str) -> Geometry:
    return Geometry(name)


def _riem_contracted_at(x, g, point: dict, w, v):
    """Riem(w, v, v, w) of the metric g(x) at `point`, symbolically."""
    n = len(x)
    ginv, gam = christoffel_symbolic(x, g)
    total = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    c = w[i] * v[j] * v[k] * w[l]
                    if c == 0:
                        continue
                    rup = [sp.diff(gam[m][l][j], x[k]) - sp.diff(gam[m][k][j], x[l])
                           + sum(gam[m][k][a] * gam[a][l][j]
                                 - gam[m][l][a] * gam[a][k][j]
                                 for a in range(n))
                           for m in range(n)]
                    total += c * -sum(g[i, m] * rup[m] for m in range(n))
    return sp.simplify(total.subs(point))


@functools.lru_cache(maxsize=None)
def positivity_exit_closed_forms() -> dict:
    """Certificate closed forms of the flat positivity-exit families.

    In normal coordinates y of a flat chart the base metric is eta, the bump
    equals its core near the centre, and g_n = exp(2 core(y) / n) eta. The
    certificate is Riem(g_n)(w, v, v, w) at y = 0 with the construction's
    (v, w) per case. Returns {case: f(n, g_ww)} derived here symbolically.
    """
    y = sp.symbols("y0:4", real=True)
    n = sp.symbols("n", positive=True)
    b, c, d = sp.symbols("b c d", real=True)
    eta = sp.diag(-1, 1, 1, 1)
    origin = {s: 0 for s in y}
    gww = sp.symbols("g_ww", real=True)
    cases = {
        # case: (core, v, w, g(w, w), closed form in n and g_ww)
        "timelike": (sp.exp(y[0]), (1, 0, 0, 0), (0, 1, 0, 0), 1,
                     -sp.exp(2 / n) / n),
        "null-null": (y[0] ** 2, (1, 1, 0, 0), (1, -1, 0, 0), 0, -8 / n),
        "null-spacelike": ((y[0] + y[1]) ** 2, (1, 1, 0, 0), (b, -b, c, d),
                           c**2 + d**2, -8 * gww / n),
    }
    out = {}
    for case, (core, v, w, g_ww, closed) in cases.items():
        value = _riem_contracted_at(y, sp.exp(2 * core / n) * eta, origin, w, v)
        if sp.simplify(value - closed.subs(gww, g_ww)) != 0:
            raise AssertionError(f"{case}: derived {value}, claimed {closed}")
        out[case] = sp.lambdify([n, gww], closed, "math")
    return out


def _mean_curvature(name: str, embedding, u0, v=None):
    """Mean curvature vector and metric at p = x(u0) (sympy), n and p.

    With v given, the metric is g_n = exp(2 phi / n) g with the affine bump
    core phi = (g(p) v) . (x - p), and the entries are expressions in n.
    Only first derivatives of the metric at p enter:
    H^k = h^{ab} (normal part of d_a d_b x^k + Gamma^k_ij d_a x^i d_b x^j).
    """
    x, g = _metric(name)
    dim = len(x)
    n = sp.symbols("n", positive=True)
    u = sp.symbols(f"u0:{len(u0)}", real=True)
    m = len(u)
    xu = [sp.sympify(e) for e in embedding(u)]
    at_u = dict(zip(u, [float(a) for a in u0]))
    p = [float(sp.N(e.subs(at_u))) for e in xu]
    at_p = dict(zip(x, p))
    if v is not None:
        gp = np.array(g.subs(at_p).evalf(), dtype=float)
        dphi = gp @ np.asarray(v, dtype=float)
        phi = sum(float(dphi[i]) * (x[i] - p[i]) for i in range(dim))
        g = sp.exp(2 * phi / n) * g
    g_p = g.subs(at_p)
    g_p_inv = g_p.inv()
    dg = [g.diff(x[k]).subs(at_p) for k in range(dim)]     # d_k g_ij
    gam = [[[sum(g_p_inv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                 for l in range(dim)) / 2
             for j in range(dim)] for i in range(dim)] for k in range(dim)]
    jac = [[sp.diff(xu[i], u[a]).subs(at_u) for a in range(m)]
           for i in range(dim)]
    J = sp.Matrix(jac)
    first_inv = (J.T * g_p * J).inv()
    hvec = sp.zeros(dim, 1)
    for a in range(m):
        for c in range(m):
            acc = sp.Matrix([
                sp.diff(xu[k], u[a], u[c]).subs(at_u)
                + sum(gam[k][i][j] * jac[i][a] * jac[j][c]
                      for i in range(dim) for j in range(dim))
                for k in range(dim)])
            normal = acc - J * (first_inv * (J.T * g_p * acc))
            hvec += first_inv[a, c] * normal
    return hvec, g_p, n, np.array(p)


def mean_curvature(name: str, embedding, u0):
    """(H, g(p), p) of the submanifold x(u) at u0, numerically."""
    hvec, g_p, _, p = _mean_curvature(name, embedding, u0)
    return (np.array(hvec.evalf(), dtype=float).reshape(-1),
            np.array(g_p.evalf(), dtype=float), p)


def trapped_exit_certificates(name: str, embedding, u0, v, n_max: int):
    """ghat(Hhat, Hhat) of the trapped-exit family, recomputed symbolically.

    `embedding(u)` returns the chart point of the submanifold at the sympy
    parameter symbols u. Near p = x(u0) the bump equals its affine core, so
    g_n = exp(2 phi / n) g there; the mean curvature of the embedding under
    g_n is derived with n symbolic. Returns the certificate for n = 1..n_max.
    """
    hvec, g_p, n, _ = _mean_curvature(name, embedding, u0, v)
    f = sp.lambdify([n], (hvec.T * g_p * hvec)[0, 0], "math")
    return [float(f(k)) for k in range(1, n_max + 1)]


def _sphere(t, radius):
    def emb(u):
        return [t, radius * sp.sin(u[0]) * sp.cos(u[1]),
                radius * sp.sin(u[0]) * sp.sin(u[1]), radius * sp.cos(u[0])]
    return emb


def _polar_sphere(radius):
    return lambda u: [0, radius, u[0], u[1]]


S_REF = 1.0 / float(np.sqrt(6.0 * np.pi))      # flrw_dust epoch at rho0 = 1

# builtin submanifolds (and the spacetime file's), written independently:
# (spacetime, submanifold) -> embedding of the parameter symbols
EMBEDDINGS = {
    ("minkowski", "sphere"): _sphere(0, 1),
    ("minkowski", "plane"): lambda u: [0, 0, u[0], u[1]],
    ("torus_quotient", "Pi"): lambda u: [0, u[0], u[1], u[2]],
    ("torus_quotient", "S"): lambda u: [0, 0, u[0], u[1]],
    ("schwarzschild_ef", "inner_sphere"): _polar_sphere(1.5 * M_SCHW),
    ("schwarzschild_ef", "horizon_sphere"): _polar_sphere(2 * M_SCHW),
    ("schwarzschild_ef", "outer_sphere"): _polar_sphere(3 * M_SCHW),
    ("schwarzschild_ef", "far_sphere"): _polar_sphere(4 * M_SCHW),
    ("schwarzschild_static", "far_sphere"): _polar_sphere(4 * M_SCHW),
    ("flrw_dust", "sphere"): _sphere(S_REF, 0.5 * S_REF),
    ("desitter", "sphere"): _sphere(0, 0.7),
    ("null_H_demo", "sheet"): lambda u: [-u[0] ** 2 / 2, u[0] ** 2 / 2,
                                         u[0], u[1]],
    ("contracting_desitter", "horizon"): _sphere(0, 1 / H_SPEC),
}

# designated future timelike field X, constant in every chart used here
ORIENTATION = {name: np.array([1.0, 0.0, 0.0, 0.0]) for name in (
    "minkowski", "torus_quotient", "schwarzschild_static", "flrw_dust",
    "desitter", "null_H_demo", "contracting_desitter")}
ORIENTATION["schwarzschild_ef"] = np.array([1.0, -2.0, 0.0, 0.0])
