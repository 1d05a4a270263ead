"""The memristor circuit field, the nonlinear field of the built-in
``memristor`` problem, with its differentials in closed form.

Kept apart from ``problems``: compiling one module of both costs more memory
at import than compiling each on its own.
"""

import numpy as np

from .deriv_engine import VectorField

__all__ = ["memristor_field"]

# Two-memristor circuit: components 1 and 5 are linear, 2 and 4 are a linear
# voltage difference times a rational function of y2, component 3 adds a
# bilinear y3 * (quadratic in y1) piece.  The circuit's constants a..e, and
# the amplitude of the voltage source that drives it:
_A, _B, _C, _D, _E = 8.0, 10.0, 0.0, 2.0, 0.1
_DRIVE = 0.1


def _reciprocal_derivs(x, e):
    """Derivatives through order 4 of 1 / ((1 + e) + 3 e x^2), in plain
    Python complex arithmetic whatever the type of x."""
    x = complex(x)
    den = (1.0 + e) + 3.0 * e * x * x
    d1 = 6.0 * e * x
    d2 = 6.0 * e
    g0 = 1.0 / den
    g1 = -d1 / den**2
    g2 = 2.0 * d1**2 / den**3 - d2 / den**2
    g3 = -6.0 * d1**3 / den**4 + 6.0 * d1 * d2 / den**3
    g4 = 24.0 * d1**4 / den**5 - 36.0 * d1**2 * d2 / den**4 + 6.0 * d2**2 / den**3
    return (g0, g1, g2, g3, g4)


def _window_recip_derivs(x, g):
    """Derivatives through order 4 of (1 + 3 x^2) g(x), given g's derivatives.

    The n-th is 0.0 plus C(n, k) w^(k) g^(n-k) for k = 0, 1, 2 in turn,
    where w = 1 + 3 x^2.
    """
    w0, w1, w2 = 1.0 + 3.0 * x * x, 6.0 * x, 6.0
    g0, g1, g2, g3, g4 = g
    return (
        0.0 + 1 * w0 * g0,
        0.0 + 1 * w0 * g1 + 1 * w1 * g0,
        0.0 + 1 * w0 * g2 + 2 * w1 * g1 + 1 * w2 * g0,
        0.0 + 1 * w0 * g3 + 3 * w1 * g2 + 3 * w2 * g1,
        0.0 + 1 * w0 * g4 + 4 * w1 * g3 + 6 * w2 * g2,
    )


def _direction_products(comps):
    """Product of all the components, and for each i of all but the i-th.

    Each product runs left to right from 1.0; the one without the i-th
    continues the product of the first i.
    """
    prefix = [1.0]
    for v in comps:
        prefix.append(prefix[-1] * v)
    rests = []
    for i in range(len(comps)):
        rest = prefix[i]
        for v in comps[i + 1 :]:
            rest = rest * v
        rests.append(rest)
    return prefix[-1], rests


def memristor_field():
    """The five-state memristor circuit field with differentials to order 4.

    With g = 1 / ((1 + e) + 3 e y2^2) and h = (1 + 3 y2^2) g, the rows are
    y3, (y4 - y3) g, a y3 phi(y1) - a (y3 - y4) h, (y3 - y4) h + y5 and
    -b y4 - c y5, where phi(y1) = d - (1 + 3 y1^2) and a..e are the
    module's circuit constants.  ``evaluate`` and a point unpack y into
    plain Python complex numbers, which cost less per operation than numpy
    scalars; a point also holds the derivatives of g, h and phi at its y2
    and y1, each already multiplied by the linear factor it meets.  Orders
    1, 2 and 3 take closed forms that make the general formula's products
    and sums in its order, so every order gives the same bits as the general
    formula, which order 4 runs.
    """
    # locals, so the closures below read them as cell variables
    a, b, c, d, e = _A, _B, _C, _D, _E

    def evaluate(y):
        y1, y2, y3, y4, y5 = np.asarray(y).tolist()
        g = 1.0 / ((1.0 + e) + 3.0 * e * y2 * y2)
        h = (1.0 + 3.0 * y2 * y2) * g
        return np.array(
            [
                y3,
                (y4 - y3) * g,
                a * y3 * (d - (1.0 + 3.0 * y1 * y1)) - a * (y3 - y4) * h,
                (y3 - y4) * h + y5,
                -b * y4 - c * y5,
            ],
            dtype=complex,
        )

    def jet(y):
        y1, y2, y3, y4, _ = np.asarray(y).tolist()
        g = _reciprocal_derivs(y2, e)
        h = _window_recip_derivs(y2, g)
        phi = (d - (1.0 + 3.0 * y1 * y1), -6.0 * y1, -6.0, 0.0, 0.0)
        # Rows 2, 3 and 4 are sums of L(y) s(y_k) with L linear.  Their n-th
        # differential is L(y) s^(n) prod_i v_ik plus, for each i,
        # (grad L . v_i) s^(n-1) prod_(j != i) v_jk.  The L(y) s^(n) factors:
        lg = [(y4 - y3) * gn for gn in g]
        lh = [(y3 - y4) * hn for hn in h]  # the (y3 - y4) h part of rows 3 and 4
        lphi = [y3 * pn for pn in phi]

        def differential_at(n, directions):
            if n == 1:
                v1, v2, v3, v4, v5 = np.asarray(directions[0]).tolist()
                prod1, prod2 = 1.0 * v1, 1.0 * v2
                row2 = lg[1] * prod2 + (v4 - v3) * g[0] * 1.0
                window = lh[1] * prod2 + (v3 - v4) * h[0] * 1.0
                cubic = lphi[1] * prod1 + v3 * phi[0] * 1.0
                row5 = -b * v4 - c * v5
                return np.array([v3, row2, a * cubic - a * window, window + v5, row5], dtype=complex)
            if n == 2:
                u1, u2, u3, u4, _ = np.asarray(directions[0]).tolist()
                v1, v2, v3, v4, _ = np.asarray(directions[1]).tolist()
                prod1, prod2 = 1.0 * u1 * v1, 1.0 * u2 * v2
                row2 = lg[2] * prod2 + (u4 - u3) * g[1] * (1.0 * v2) + (v4 - v3) * g[1] * (1.0 * u2)
                window = lh[2] * prod2 + (u3 - u4) * h[1] * (1.0 * v2) + (v3 - v4) * h[1] * (1.0 * u2)
                cubic = lphi[2] * prod1 + u3 * phi[1] * (1.0 * v1) + v3 * phi[1] * (1.0 * u1)
                return np.array([0.0, row2, a * cubic - a * window, window, 0.0], dtype=complex)
            if n == 3:
                u1, u2, u3, u4, _ = np.asarray(directions[0]).tolist()
                v1, v2, v3, v4, _ = np.asarray(directions[1]).tolist()
                w1, w2, w3, w4, _ = np.asarray(directions[2]).tolist()
                head1, head2 = 1.0 * u1, 1.0 * u2  # the products' first factors
                pair1, pair2 = head1 * v1, head2 * v2
                prod1, prod2 = pair1 * w1, pair2 * w2
                vw1, uw1, vw2, uw2 = 1.0 * v1 * w1, head1 * w1, 1.0 * v2 * w2, head2 * w2
                row2 = (lg[3] * prod2 + (u4 - u3) * g[2] * vw2 + (v4 - v3) * g[2] * uw2
                        + (w4 - w3) * g[2] * pair2)
                window = (lh[3] * prod2 + (u3 - u4) * h[2] * vw2 + (v3 - v4) * h[2] * uw2
                          + (w3 - w4) * h[2] * pair2)
                cubic = (lphi[3] * prod1 + u3 * phi[2] * vw1 + v3 * phi[2] * uw1
                         + w3 * phi[2] * pair1)
                return np.array([0.0, row2, a * cubic - a * window, window, 0.0], dtype=complex)
            comps = [np.asarray(dirn).tolist() for dirn in directions]
            prod1, rests1 = _direction_products([v[0] for v in comps])
            prod2, rests2 = _direction_products([v[1] for v in comps])
            row2 = lg[n] * prod2
            window = lh[n] * prod2
            cubic = lphi[n] * prod1
            for v, rest1, rest2 in zip(comps, rests1, rests2):
                row2 = row2 + (v[3] - v[2]) * g[n - 1] * rest2
                window = window + (v[2] - v[3]) * h[n - 1] * rest2
                cubic = cubic + v[2] * phi[n - 1] * rest1
            return np.array([0.0, row2, a * cubic - a * window, window, 0.0], dtype=complex)

        return differential_at

    return VectorField(
        dimension=5,
        evaluate=evaluate,
        jet=jet,
        max_order=4,
        reads=lambda n: range(5) if n == 1 else range(4),  # y5 enters linearly
    )
