"""Nonlocal kernel pair, manufactured solutions and forcing functions."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelPair:
    """The built-in diffusion/convection kernel pair with horizon ``delta``.

    The diffusion kernel is 3/(2 delta**3) and the convection kernel
    3|s|/(2 delta**3), both zero outside the horizon |s| <= delta.  They have
    unit second and first moments, and conv = |s| * diff pointwise.  The
    manufactured forcings of this module are derived for this pair.
    """

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:   # NaN fails both comparisons
            raise ValueError(f"horizon delta must be positive and finite, got {self.delta}")

    @property
    def diffusion_inside(self):
        """The diffusion kernel's one value inside the horizon."""
        return 1.5 / self.delta**3

    def convection_inside(self, r):
        """The convection kernel at scaled separations r = s / delta inside
        the horizon, |r| <= 1, signed as r.  Scalings by positive numbers
        commute with the sign in IEEE arithmetic, so at r = s / delta with
        0 < |s| <= delta it has the bits of ``eval_convection_signed(s)``."""
        return 1.5 * r / self.delta**2

    def eval_diffusion(self, s):
        """Scaled diffusion kernel value at signed separation ``s``."""
        r = np.abs(np.asarray(s, dtype=float)) / self.delta
        return np.where(r <= 1.0, self.diffusion_inside, 0.0)

    def eval_convection(self, s):
        """Scaled (unsigned) convection kernel value at signed separation ``s``."""
        r = np.abs(np.asarray(s, dtype=float)) / self.delta
        return np.where(r <= 1.0, self.convection_inside(r), 0.0)

    def eval_convection_signed(self, s):
        """Convection kernel with the direction factor sign(s); sign(0) = 0."""
        s = np.asarray(s, dtype=float)
        return np.sign(s) * self.eval_convection(s)


def constant_kernel_pair(delta):
    """Built-in pair: diffusion profile 3/2, convection profile 3|r|/2."""
    return KernelPair(delta)


def exact_smooth(x):
    """Smooth manufactured solution x**5."""
    return np.asarray(x, dtype=float) ** 5


def forcing_smooth_nonlocal(x, eps, delta):
    """Forcing that makes x**5 the exact nonlocal solution (built-in kernels)."""
    x = np.asarray(x, dtype=float)
    return (-eps * (20.0 * x**3 + 6.0 * delta**2 * x)
            + 5.0 * x**4 + 6.0 * delta**2 * x**2 + (3.0 / 7.0) * delta**4)


def forcing_smooth_local(x, eps):
    """Local-limit forcing for the x**5 solution."""
    x = np.asarray(x, dtype=float)
    return -20.0 * eps * x**3 + 5.0 * x**4


def exact_sharp(x, eps):
    """Boundary-layer solution (expm1((x-1)/eps)) / (expm1(-1/eps))."""
    x = np.asarray(x, dtype=float)
    return np.expm1((x - 1.0) / eps) / math.expm1(-1.0 / eps)


def _sharp_bracket(d):
    # 2 + cosh(d) - 3*sinh(d)/d, where d = delta/eps.  The closed form loses
    # all precision for small d (the value is Theta(d**4) against O(1) terms),
    # so use the power series sum_{k>=2} (2k-2) d^(2k) / (2k+1)! there.
    if d <= 0.5:
        total = 0.0
        d2 = d * d
        power = d2 * d2
        for k in range(2, 30):
            term = (2 * k - 2) * power / math.factorial(2 * k + 1)
            total += term
            if term < 1e-18 * total:
                break
            power *= d2
        return total
    return 2.0 + math.cosh(d) - 3.0 * math.sinh(d) / d


def forcing_sharp(x, eps, delta):
    """Forcing that makes ``exact_sharp`` the exact nonlocal solution."""
    x = np.asarray(x, dtype=float)
    denom = math.expm1(-1.0 / eps)
    d = delta / eps
    if d <= 500.0:
        bracket = (3.0 * eps / delta**2) * _sharp_bracket(d)
        return bracket * np.exp((x - 1.0) / eps) / denom
    # exp(d) overflows: fold the exponentials into e^{(x-1±delta)/eps} so the
    # result stays finite wherever it is representable.
    e0 = np.exp((x - 1.0) / eps)
    ep = np.exp((x - 1.0 + delta) / eps)
    em = np.exp((x - 1.0 - delta) / eps)
    return ((3.0 * eps / (2.0 * delta**2)) * (4.0 * e0 + ep + em)
            - (9.0 * eps**2 / (2.0 * delta**3)) * (ep - em)) / denom
