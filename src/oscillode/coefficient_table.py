"""The coefficients of an expansion on a time grid, summed at any omega."""

import numpy as np

from .ode_core import _finite_positive


class CoefficientTable:
    """Coefficients at the times ``ts``: ``values[r]`` is (len(ts), labels, d), one
    column per level-r label of float frequency ``sigmas[r]``; level 0 is p_00 alone."""

    def __init__(self, ts, sigmas, values):
        self.ts = ts
        self.sigmas = sigmas
        self.values = values

    def evaluate(self, omega, s):
        """The truncated sum P00 + sum_{r<=s} omega^-r sum_m P_rm e^(i sigma_m
        omega t) at every time, shape (len(ts), d)."""
        top = len(self.values) - 1
        if not 0 <= s <= top:
            raise ValueError(f"s={s} is outside 0..{top}, the levels of the table")
        omega = _finite_positive("omega", float(omega))
        y = self.values[0][:, 0].copy()
        for r in range(1, s + 1):
            # ((i sigma_m) omega) t: the products in the order of a per-point sum
            phases = np.exp(np.multiply.outer(1j * self.sigmas[r] * omega, self.ts))
            acc = np.zeros_like(y)
            for value, phase in zip(self.values[r].transpose(1, 0, 2), phases):
                acc = acc + value * phase[:, None]
            y = y + acc / omega**r
        return y
