"""Embedded Dormand-Prince 8(5,3) integrator (DOP853) with dense output.

States are complex vectors.  Each step evaluates the twelve stages of the
eighth-order method of Hairer, Norsett and Wanner (Solving ODEs I, II.10);
the end derivative f(t+h, y_new) of an accepted step is the first stage of
the next (FSAL).  The step controller uses the method's combined fifth- and
third-order error estimate.  With dense output on, three more stages per
accepted step give the method's seventh-order continuous extension, kept
as made: one (7, n) array per accepted step, never copied into one block.
Off, only the states at t = 0, the knots and t_end are kept, so memory
grows with the knots, not with the steps.

A step that would pass a knot is cut to end on it.  The cut does not steer
the controller: after an accepted cut step, the next step is the larger of
the usual proposal and the step chosen before the cut, so a knot just past
a step's end costs one short step, not a run of steps growing back from it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceeded, NonFiniteRHS, OutOfDomain, StepUnderflow

__all__ = ["IvpSpec", "DenseSolution", "integrate", "sample"]


def _parse_table(width, text):
    """A float array from lines of "row column value", zero elsewhere."""
    entries = [line.split() for line in text.strip().splitlines()]
    table = [[0.0] * width for _ in range(1 + max(int(i) for i, _, _ in entries))]
    for i, j, value in entries:
        table[int(i)][int(j)] = float(value)
    return np.array(table)


# DOP853 tableau: stages 0-11 make the step, stage 12 at c = 1 with row B is
# f(t+h, y_new), and stages 13-15 exist for the dense output only.  A and D
# are "row column value" text: compiled as some 130 float literals they
# would take about 0.3 MB more memory at import wherever bytecode is not
# cached.
_C = np.array([
    0.0,
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
    0.777777777777777777777777777778,
])
_A = _parse_table(16, """
 1  0 5.26001519587677318785587544488e-2
 2  0 1.97250569845378994544595329183e-2
 2  1 5.91751709536136983633785987549e-2
 3  0 2.95875854768068491816892993775e-2
 3  2 8.87627564304205475450678981324e-2
 4  0 2.41365134159266685502369798665e-1
 4  2 -8.84549479328286085344864962717e-1
 4  3 9.24834003261792003115737966543e-1
 5  0 3.7037037037037037037037037037e-2
 5  3 1.70828608729473871279604482173e-1
 5  4 1.25467687566822425016691814123e-1
 6  0 3.7109375e-2
 6  3 1.70252211019544039314978060272e-1
 6  4 6.02165389804559606850219397283e-2
 6  5 -1.7578125e-2
 7  0 3.70920001185047927108779319836e-2
 7  3 1.70383925712239993810214054705e-1
 7  4 1.07262030446373284651809199168e-1
 7  5 -1.53194377486244017527936158236e-2
 7  6 8.27378916381402288758473766002e-3
 8  0 6.24110958716075717114429577812e-1
 8  3 -3.36089262944694129406857109825
 8  4 -8.68219346841726006818189891453e-1
 8  5 2.75920996994467083049415600797e1
 8  6 2.01540675504778934086186788979e1
 8  7 -4.34898841810699588477366255144e1
 9  0 4.77662536438264365890433908527e-1
 9  3 -2.48811461997166764192642586468
 9  4 -5.90290826836842996371446475743e-1
 9  5 2.12300514481811942347288949897e1
 9  6 1.52792336328824235832596922938e1
 9  7 -3.32882109689848629194453265587e1
 9  8 -2.03312017085086261358222928593e-2
10  0 -9.3714243008598732571704021658e-1
10  3 5.18637242884406370830023853209
10  4 1.09143734899672957818500254654
10  5 -8.14978701074692612513997267357
10  6 -1.85200656599969598641566180701e1
10  7 2.27394870993505042818970056734e1
10  8 2.49360555267965238987089396762
10  9 -3.0467644718982195003823669022
11  0 2.27331014751653820792359768449
11  3 -1.05344954667372501984066689879e1
11  4 -2.00087205822486249909675718444
11  5 -1.79589318631187989172765950534e1
11  6 2.79488845294199600508499808837e1
11  7 -2.85899827713502369474065508674
11  8 -8.87285693353062954433549289258
11  9 1.23605671757943030647266201528e1
11 10 6.43392746015763530355970484046e-1
12  0 5.42937341165687622380535766363e-2
12  5 4.45031289275240888144113950566
12  6 1.89151789931450038304281599044
12  7 -5.8012039600105847814672114227
12  8 3.1116436695781989440891606237e-1
12  9 -1.52160949662516078556178806805e-1
12 10 2.01365400804030348374776537501e-1
12 11 4.47106157277725905176885569043e-2
13  0 5.61675022830479523392909219681e-2
13  6 2.53500210216624811088794765333e-1
13  7 -2.46239037470802489917441475441e-1
13  8 -1.24191423263816360469010140626e-1
13  9 1.5329179827876569731206322685e-1
13 10 8.20105229563468988491666602057e-3
13 11 7.56789766054569976138603589584e-3
13 12 -8.298e-3
14  0 3.18346481635021405060768473261e-2
14  5 2.83009096723667755288322961402e-2
14  6 5.35419883074385676223797384372e-2
14  7 -5.49237485713909884646569340306e-2
14 10 -1.08347328697249322858509316994e-4
14 11 3.82571090835658412954920192323e-4
14 12 -3.40465008687404560802977114492e-4
14 13 1.41312443674632500278074618366e-1
15  0 -4.28896301583791923408573538692e-1
15  5 -4.69762141536116384314449447206
15  6 7.68342119606259904184240953878
15  7 4.06898981839711007970213554331
15  8 3.56727187455281109270669543021e-1
15 12 -1.39902416515901462129418009734e-3
15 13 2.9475147891527723389556272149
15 14 -9.15095847217987001081870187138
""")
_B = _A[12, :12]
# error estimates: the fifth-order one's weights, and B minus the embedded
# third-order weights, subtracted as Python floats (the first numpy
# subtraction in a process costs about 0.15 MB of RSS, which a run without
# integration would otherwise pay at import)
_E5 = np.array([
    0.1312004499419488073250102996e-1,
    0.0,
    0.0,
    0.0,
    0.0,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
_E3 = np.array([b - b3 for b, b3 in zip(_B.tolist(), (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
))])
# dense output: rows 3-6 of the interpolant's coefficients over stages 0-15
# (rows 0-2 come from the step's ends)
_D = _parse_table(16, """
 0  0 -0.84289382761090128651353491142e+1
 0  5 0.56671495351937776962531783590
 0  6 -0.30689499459498916912797304727e+1
 0  7 0.23846676565120698287728149680e+1
 0  8 0.21170345824450282767155149946e+1
 0  9 -0.87139158377797299206789907490
 0 10 0.22404374302607882758541771650e+1
 0 11 0.63157877876946881815570249290
 0 12 -0.88990336451333310820698117400e-1
 0 13 0.18148505520854727256656404962e+2
 0 14 -0.91946323924783554000451984436e+1
 0 15 -0.44360363875948939664310572000e+1
 1  0 0.10427508642579134603413151009e+2
 1  5 0.24228349177525818288430175319e+3
 1  6 0.16520045171727028198505394887e+3
 1  7 -0.37454675472269020279518312152e+3
 1  8 -0.22113666853125306036270938578e+2
 1  9 0.77334326684722638389603898808e+1
 1 10 -0.30674084731089398182061213626e+2
 1 11 -0.93321305264302278729567221706e+1
 1 12 0.15697238121770843886131091075e+2
 1 13 -0.31139403219565177677282850411e+2
 1 14 -0.93529243588444783865713862664e+1
 1 15 0.35816841486394083752465898540e+2
 2  0 0.19985053242002433820987653617e+2
 2  5 -0.38703730874935176555105901742e+3
 2  6 -0.18917813819516756882830838328e+3
 2  7 0.52780815920542364900561016686e+3
 2  8 -0.11573902539959630126141871134e+2
 2  9 0.68812326946963000169666922661e+1
 2 10 -0.10006050966910838403183860980e+1
 2 11 0.77771377980534432092869265740
 2 12 -0.27782057523535084065932004339e+1
 2 13 -0.60196695231264120758267380846e+2
 2 14 0.84320405506677161018159903784e+2
 2 15 0.11992291136182789328035130030e+2
 3  0 -0.25693933462703749003312586129e+2
 3  5 -0.15418974869023643374053993627e+3
 3  6 -0.23152937917604549567536039109e+3
 3  7 0.35763911791061412378285349910e+3
 3  8 0.93405324183624310003907691704e+2
 3  9 -0.37458323136451633156875139351e+2
 3 10 0.10409964950896230045147246184e+3
 3 11 0.29840293426660503123344363579e+2
 3 12 -0.43533456590011143754432175058e+2
 3 13 0.96324553959188282948394950600e+2
 3 14 -0.39177261675615439165231486172e+2
 3 15 -0.14972683625798562581422125276e+3
""")

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.125  # 1/8
MAX_STEPS = 10_000_000  # attempted steps per integrate call


@dataclass
class IvpSpec:
    """Initial value problem y' = rhs(t, y) on [0, t_end].

    ``knots`` is an optional array of times, in any order, the integrator
    must land on exactly, so samples there carry no interpolation error.
    ``tol`` is the one accuracy setting: each step's error is kept below
    ``tol + tol * |y|`` componentwise, an absolute and a relative tolerance
    of the same size.  ``y0``, ``t_end``, ``tol`` and every knot must be
    finite, and ``t_end`` and ``tol`` positive, else the spec raises
    ValueError.  The step budget is ``MAX_STEPS``, the same for every spec.

    With ``dense_refine`` on, every accepted step is stored with the seven
    coefficients of its seventh-order interpolant, one array per step in
    ``dense`` (three more right-hand-side calls per step), so it can be
    sampled anywhere.  Off, only the states at t = 0, the knots and t_end
    are kept and sampled.
    """

    rhs: object
    y0: object
    t_end: float
    tol: float = 1e-10
    knots: object = None
    dense_refine: bool = True

    def __post_init__(self):
        _check_finite_y0(self.y0)
        _finite_positive("t_end", self.t_end)
        _finite_positive("tol", self.tol)
        if self.knots is not None:
            knots = np.asarray(self.knots, dtype=float).ravel().tolist()
            bad = [tk for tk in knots if not math.isfinite(tk)]
            if bad:
                raise ValueError(f"knot {bad[0]!r} is not finite; every knot must be")


def _finite_positive(name, x):
    """``x``, after a ValueError naming it unless it is finite and positive."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name}={x!r} must be finite and positive")
    return x


def _nonnegative_integer(name, x):
    """``x`` as an int, after a ValueError naming it unless it is a
    nonnegative integer; a float such as 2.0 passes, a string or None not."""
    try:
        ok = float(x).is_integer() and x >= 0
    except (TypeError, ValueError):  # float("2") passes, "2" >= 0 does not
        ok = False
    if not ok:
        raise ValueError(f"{name}={x!r} must be a nonnegative integer")
    return int(x)


def _check_finite_y0(y0):
    """ValueError naming the first component of ``y0`` that is not finite."""
    # part by part: loading cmath, which nothing else here needs, costs
    # about 0.1 MB of RSS
    for i, z in enumerate(np.asarray(y0, dtype=complex).ravel().tolist()):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"y0[{i}]={z!r} is not finite; every component of y0 must be")


@dataclass
class DenseSolution:
    """Stored states (without ``dense``, at t = 0, the knots and t_end
    only), plus each step's interpolant if recorded.  ``n_steps`` counts
    attempted steps and ``n_accepted`` accepted ones.

    ``dense`` is a list with one (7, n) array per accepted step, in step
    order, or None.  ``dense[i]`` holds the seven coefficient vectors
    F_0..F_6 of the step from ``ts[i]``; at s = (t - ts[i]) / h and
    u = 1 - s the value there is ``ys[i] + sum_j w_j F_j`` with weights
    w = (s, s u, s^2 u, s^2 u^2, s^3 u^2, s^3 u^3, s^4 u^3).
    """

    ts: np.ndarray
    ys: np.ndarray
    dense: list | None = None
    n_steps: int = 0
    n_accepted: int = 0
    n_rhs_evals: int = 0


def _error_norm(k, h, y_old, y_new, tol):
    """Max over components of DOP853's combined estimate e5^2 / sqrt(e5^2 +
    e3^2 / 100), each error taken relative to tol + tol * max(|y_old|, |y_new|)."""
    # tol + tol * m, not tol * (1 + m): the same operations, and so the same
    # bits, as the mixed scale Atol + Rtol * m with Atol = Rtol = tol
    scale = tol + tol * np.maximum(np.abs(y_old), np.abs(y_new))
    err5 = h * np.abs(_E5 @ k) / scale
    err3 = h * np.abs(_E3 @ k) / scale
    num = err5 * err5
    den = np.sqrt(num + 0.01 * err3 * err3)
    return float(np.max(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)))


def _initial_step(y0, f0, t_end, tol):
    scale = tol + tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h0, t_end / 10.0)


def integrate(spec: IvpSpec) -> DenseSolution:
    """Adaptive integration of ``spec`` over [0, t_end].

    The per-step error estimate is kept below ``tol + tol * |y|``
    componentwise; the step controller uses safety factor 0.9, exponent 1/8
    and growth clamped to [0.2, 5].  A NaN or infinite stage value raises
    NonFiniteRHS at the step where it appears, before the next stage; a
    step too small to move ``t`` raises StepUnderflow, and attempting more
    than ``MAX_STEPS`` steps raises MaxStepsExceeded.
    """
    rhs = spec.rhs
    y = np.asarray(spec.y0, dtype=complex).copy()
    t = 0.0
    t_end = float(spec.t_end)
    f = np.asarray(rhs(t, y), dtype=complex)
    n_evals = 1

    # sorted as Python floats: np.unique imports numpy.ma (about 1 MB) and
    # np.sort's first call grows the process by 128 KB; repeats are skipped
    knots = [] if spec.knots is None else np.asarray(spec.knots, dtype=float).tolist()
    knots = [tk for tk in sorted(knots) if 0.0 < tk < t_end]
    knot_pos = 0

    ts, ys = [0.0], [y.copy()]
    dense = [] if spec.dense_refine else None

    h = _initial_step(y, f, t_end, spec.tol)
    k = np.empty((16, y.size), dtype=complex)
    n_steps = n_accepted = 0

    def stage(i, y_stage):
        k[i] = rhs(t + _C[i] * h, y_stage)
        if not np.isfinite(k[i]).all():
            raise NonFiniteRHS(
                f"non-finite right-hand side in the step from t={t:.6g} (h={h:.3e})", t=t
            )

    while t < t_end:
        if n_steps >= MAX_STEPS:
            raise MaxStepsExceeded(f"exceeded {MAX_STEPS} steps at t={t:.6g}")
        # a step cut to end on a knot or on t_end ends there exactly; the
        # controller's step from before the cut is kept for the next step
        h_kept = h
        stop = t_end if h >= t_end - t else None
        h = min(h, t_end - t)
        while knot_pos < len(knots) and knots[knot_pos] <= t + 1e-14:
            knot_pos += 1
        if knot_pos < len(knots) and t + h > knots[knot_pos] - 1e-14:
            stop = knots[knot_pos]
            h = stop - t
        if t + h == t:
            raise StepUnderflow(f"step size underflow at t={t:.6g} (h={h:.3e})")

        k[0] = f
        for i in range(1, 12):
            stage(i, y + h * (_A[i, :i] @ k[:i]))
        n_evals += 11
        y_new = y + h * (_B @ k[:12])
        err = _error_norm(k[:12], h, y, y_new, spec.tol)

        if err <= 1.0:
            stage(12, y_new)  # c = 1 and row B: f(t + h, y_new)
            n_evals += 1
            if dense is not None:
                for i in range(13, 16):
                    stage(i, y + h * (_A[i, :i] @ k[:i]))
                n_evals += 3
                dy = y_new - y
                # row by row: a matrix product here would be the only one
                # in the program, and its first call grows the process by
                # a BLAS buffer
                rows = [dy, h * f - dy, 2 * dy - h * (k[12] + f)]
                dense.append(np.array(rows + [h * (d @ k) for d in _D]))
            t = t + h if stop is None else stop
            y, f = y_new, k[12].copy()
            n_accepted += 1
            if dense is not None or stop is not None:
                ts.append(t)
                ys.append(y)

        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-_ORDER_EXP)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if err <= 1.0 and stop is not None:
            h = max(h, h_kept)
        n_steps += 1

    return DenseSolution(
        ts=np.array(ts),
        ys=np.array(ys),
        dense=dense,
        n_steps=n_steps,
        n_accepted=n_accepted,
        n_rhs_evals=n_evals,
    )


def sample(solution: DenseSolution, t: float) -> np.ndarray:
    """Value at ``t``: the stored state at a stored time, else the step's
    seventh-order interpolant; without ``dense`` only stored times answer."""
    ts = solution.ts
    if not ts[0] - 1e-12 <= t <= ts[-1] + 1e-12:
        raise OutOfDomain(f"t={t:.6g} outside solved span [{ts[0]:.6g}, {ts[-1]:.6g}]")
    t = min(max(t, float(ts[0])), float(ts[-1]))
    i = bisect.bisect_right(ts, t) - 1
    if t == ts[i]:
        return solution.ys[i].copy()
    if solution.dense is None:
        raise OutOfDomain(
            f"t={t:.6g} is not a stored time; a solution without dense output "
            "keeps only t = 0, the knots and t_end"
        )
    s = (t - float(ts[i])) / float(ts[i + 1] - ts[i])
    su = s * (1.0 - s)
    w = np.array([s, su, s * su, su * su, s * su * su, su**3, s * su**3])
    # elementwise, so a slice of the state samples to the same bits as the
    # whole state
    return solution.ys[i] + (w[:, None] * solution.dense[i]).sum(axis=0)
