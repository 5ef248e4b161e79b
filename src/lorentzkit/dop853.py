"""The explicit Runge-Kutta method of order 8(5,3) of Dormand and Prince
(DOP853), with its order-7 dense output and terminal events, in numpy.

Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
2nd ed., section II.5 (the method, its error estimator and its
interpolant); the tableau is that of their Fortran DOP853. The stepping is
operation for operation that of scipy's `solve_ivp(method="DOP853")`
(scipy 1.17: `rk_step`, `DOP853._step_impl`, `select_initial_step`, the
event loop of `solve_ivp`), so the accepted steps, the right-hand-side
count and the dense values are the same floats; the tests compare the two.
Event roots are found by Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps
N_STAGES = 12                 # stages of one step; the 13th is f at its end
N_STAGES_EXTENDED = 16        # with the three extra stages of the interpolant
INTERPOLATOR_POWER = 7

SAFETY = 0.9                  # step-size controller (scipy's rk.py)
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration "
               "interval.",
            1: "A termination event occurred.",
            -1: TOO_SMALL_STEP}

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

# A[s, :s] gives stage s; rows 13-15 are the interpolant's extra stages
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, :2] = [1.97250569845378994544595329183e-2,
            5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                   -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                   1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                      1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2,
                      -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                         1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1,
                         -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                            -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1,
                            2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1,
                            -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                               -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1,
                               2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1,
                               -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                   5.18637242884406370830023853209,
                                   1.09143734899672957818500254654,
                                   -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1,
                                   2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762,
                                   -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                       -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444,
                                       -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1,
                                       -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258,
                                       1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                     4.45031289275240888144113950566,
                                     1.89151789931450038304281599044,
                                     -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1,
                                     -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1,
                                     4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                      2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1,
                                      -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1,
                                      8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3,
                                      -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                       2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2,
                                       -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4,
                                       3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4,
                                       1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                      -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878,
                                      4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1,
                                      -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149,
                                      -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]    # the order-8 solution is stage 12's point

# the order-3 and order-5 error estimators, over the 13 stages
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                   0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]

# the interpolant's coefficients 4-7 (the first three come from the step)
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
_D_COLS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D[0, _D_COLS] = [-0.84289382761090128651353491142e+1,
                 0.56671495351937776962531783590,
                 -0.30689499459498916912797304727e+1,
                 0.23846676565120698287728149680e+1,
                 0.21170345824450282767155149946e+1,
                 -0.87139158377797299206789907490,
                 0.22404374302607882758541771650e+1,
                 0.63157877876946881815570249290,
                 -0.88990336451333310820698117400e-1,
                 0.18148505520854727256656404962e+2,
                 -0.91946323924783554000451984436e+1,
                 -0.44360363875948939664310572000e+1]
D[1, _D_COLS] = [0.10427508642579134603413151009e+2,
                 0.24228349177525818288430175319e+3,
                 0.16520045171727028198505394887e+3,
                 -0.37454675472269020279518312152e+3,
                 -0.22113666853125306036270938578e+2,
                 0.77334326684722638389603898808e+1,
                 -0.30674084731089398182061213626e+2,
                 -0.93321305264302278729567221706e+1,
                 0.15697238121770843886131091075e+2,
                 -0.31139403219565177677282850411e+2,
                 -0.93529243588444783865713862664e+1,
                 0.35816841486394083752465898540e+2]
D[2, _D_COLS] = [0.19985053242002433820987653617e+2,
                 -0.38703730874935176555105901742e+3,
                 -0.18917813819516756882830838328e+3,
                 0.52780815920542364900561016686e+3,
                 -0.11573902539959630126141871134e+2,
                 0.68812326946963000169666922661e+1,
                 -0.10006050966910838403183860980e+1,
                 0.77771377980534432092869265740,
                 -0.27782057523535084065932004339e+1,
                 -0.60196695231264120758267380846e+2,
                 0.84320405506677161018159903784e+2,
                 0.11992291136182789328035130030e+2]
D[3, _D_COLS] = [-0.25693933462703749003312586129e+2,
                 -0.15418974869023643374053993627e+3,
                 -0.23152937917604549567536039109e+3,
                 0.35763911791061412378285349910e+3,
                 0.93405324183624310003907691704e+2,
                 -0.37458323136451633156875139351e+2,
                 0.10409964950896230045147246184e+3,
                 0.29840293426660503123344363579e+2,
                 -0.43533456590011143754432175058e+2,
                 0.96324553959188282948394950600e+2,
                 -0.39177261675615439165231486172e+2,
                 -0.14972683625798562581422125276e+3]


@dataclass
class OdeResult:
    """What `solve_ivp` returns: the accepted times t (k,), the states y
    (n, k) there, the dense solution `sol` (None unless asked for), status
    0 (reached the end), 1 (a terminal event) or -1 (step-size breakdown),
    its message, and the number of right-hand-side calls."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution | None
    status: int
    message: str
    nfev: int


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol) -> float:
    """The first step size of Hairer, Norsett & Wanner, section II.4."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-ERROR_EXPONENT)
    return min(100 * h0, h1, interval_length)


def _stages(fun, t, y, h, K, first, last):
    """Stages first ... last - 1 into the rows of K, each from the rows
    before it."""
    for s in range(first, last):
        dy = np.dot(K[:s].T, A[s, :s]) * h
        K[s] = fun(t + C[s] * h, y + dy)


def _error_norm(K, h, scale) -> float:
    """The RMS error of the order-8 solution, the order-5 estimate damped
    by the order-3 one."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _step(fun, t, y, f, h_abs, t_bound, rtol, atol, K):
    """One accepted step from (t, y) with f = fun(t, y): (t_new, y_new,
    f_new, h, the next step size), or None when the step size falls below
    ten spacings of t. K holds the stages afterwards."""
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    while True:
        if h_abs < min_step:
            return None
        t_new = t + h_abs
        if t_new - t_bound > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = np.abs(h)

        K[0] = f
        _stages(fun, t, y, h, K, 1, N_STAGES)
        y_new = y + h * np.dot(K[:N_STAGES].T, B)
        f_new = fun(t + h, y_new)
        K[N_STAGES] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _error_norm(K[:N_STAGES + 1], h, scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR,
                             SAFETY * error_norm ** ERROR_EXPONENT)
            if rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        rejected = True


def _dense_coefficients(fun, t_old, h, y_old, y, f, K) -> np.ndarray:
    """The coefficients F (7, n) of the step's interpolant, after its three
    extra stages; K holds the step's stages, K[0] = f at t_old."""
    _stages(fun, t_old, y_old, h, K, N_STAGES + 1, N_STAGES_EXTENDED)
    F = np.empty((INTERPOLATOR_POWER, len(y)))
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def _interpolate(x, F, y_old) -> np.ndarray:
    """y_old + the interpolant at the fractions x of the step, nested in
    x and 1 - x: F (7, ..., n), y_old (..., n), x broadcast against them."""
    y = np.zeros_like(y_old)
    for i, f in enumerate(F[::-1]):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


class DenseSolution:
    """The interpolants of every accepted step, one callable over [t0, t_end].

    A time on a step boundary reads the earlier step's interpolant, one
    outside [t0, t_end] the nearest end step's; every time reads its own
    step's polynomial, so a batch gives the values of its times one at a
    time.
    """

    def __init__(self, ts, steps):
        self._inner = ts[1:-1]    # a time's step: the inner bounds below it
        self._t_old = np.array([s[0] for s in steps])
        self._h = np.array([s[1] for s in steps])
        self._y_old = np.array([s[2] for s in steps])
        self._F = np.stack([s[3] for s in steps], axis=1)   # (7, steps, n)

    def __call__(self, t) -> np.ndarray:
        """The state (n,) at a time t, or (n, B) at times t (B,)."""
        t = np.asarray(t)
        seg = np.searchsorted(self._inner, t)
        x = (t - self._t_old[seg]) / self._h[seg]
        return _interpolate(x[..., None], self._F[:, seg],
                            self._y_old[seg]).T


def _brentq(f, a: float, b: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method with xtol = rtol = 4 eps and at most 100 iterations: each step
    takes the inverse-quadratic (or secant) guess when it is short enough
    and otherwise bisects, so the bracket [xcur, xblk] always holds a sign
    change."""
    xtol = rtol = 4 * EPS
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("event function is NaN at a bracket end")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                      # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                 # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry           # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError("event function is NaN inside the bracket")
    raise RuntimeError("Failed to converge after 100 iterations.")


def solve_ivp(fun, t_span, y0, rtol=1e-3, atol=1e-6, dense_output=False,
              events=()) -> OdeResult:
    """Integrate y' = fun(t, y) from y(t0) = y0 over t_span = (t0, tf),
    tf > t0, by DOP853 with the local error of each step within atol +
    rtol |y| (in the RMS norm).

    `events` are functions event(t, y), each with `terminal` set: the solve
    stops at the first root of any of them, found by Brent's method on the
    step's interpolant, with status 1 and that root as the last t. Status
    -1 means the step size fell below ten spacings of t (`TOO_SMALL_STEP`).
    With `dense_output`, `sol` reads the solution anywhere in [t0, t_end];
    each step then costs three right-hand sides more.
    """
    t0, tf = map(float, t_span)
    if not tf > t0:
        raise ValueError(f"t_span must run forward, got {t_span!r}")
    y = np.asarray(y0).astype(float, copy=False)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite 1-dimensional array")
    events = list(events)
    if not all(getattr(event, "terminal", False) for event in events):
        raise ValueError("every event must be terminal")
    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    t = t0
    f = counted(t, y)
    h_abs = _initial_step(counted, t, y, tf, f, rtol, atol)
    K = np.empty((N_STAGES_EXTENDED, len(y)))
    ts, ys, steps = [t0], [y0], []
    g = [event(t0, y0) for event in events]
    status = None
    while status is None:
        t_old, y_old = t, y
        step = _step(counted, t, y, f, h_abs, tf, rtol, atol, K)
        if step is None:
            status = -1
            break
        t, y, f, h, h_abs = step
        if t - tf >= 0:
            status = 0
        F = None
        if dense_output:
            F = _dense_coefficients(counted, t_old, h, y_old, y, f, K)
            steps.append((t_old, h, y_old, F))
        if events:
            g_new = [event(t, y) for event in events]
            crossed = [i for i, (a, b) in enumerate(zip(g, g_new))
                       if a <= 0 <= b or b <= 0 <= a]
            if crossed:
                if F is None:
                    F = _dense_coefficients(counted, t_old, h, y_old, y, f, K)

                def on_step(s):
                    return _interpolate((np.asarray(s) - t_old) / h, F, y_old)
                roots = [_brentq(lambda s: events[i](s, on_step(s)), t_old, t)
                         for i in crossed]
                status = 1
                t = min(roots)
                y = on_step(t)
            g = g_new
        if len(ts) > 1 and ts[-1] == t and dense_output:
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)
    ts = np.array(ts)
    return OdeResult(t=ts, y=np.vstack(ys).T,
                     sol=DenseSolution(ts, steps) if dense_output else None,
                     status=status, message=MESSAGES[status], nfev=nfev)
