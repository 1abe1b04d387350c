"""Scalar root finding, maximization, and quadrature.

Root finding is always bracketed: callers supply (or grow) a sign-change
interval, and running out of iterations raises instead of returning a
best effort.  Roots are located to an absolute abscissa tolerance of
1e-12.
"""

from __future__ import annotations

import math

from .errors import NoConvergence, QuadratureFailure

_EPS = 2.220446049250313e-16
_XTOL = 1e-12


def bracket_root(f, a: float, b: float) -> float:
    """Root of f on [a, b] by bisection with inverse interpolation.

    f(a) and f(b) must differ in sign (or one endpoint be an exact root).
    The interpolation step is accepted only when it stays inside the
    current bracket and shrinks it fast enough; otherwise the step falls
    back to bisection, so the bracket width is guaranteed to collapse.
    Raises NoConvergence after 200 iterations.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise NoConvergence("no sign change on the supplied bracket",
                            bracket=(a, b), residual=min(abs(fa), abs(fb)))

    # c tracks the previous iterate so |f(b)| <= |f(a)| can be restored.
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _XTOL
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d, e = xm, xm
        else:
            d, e = xm, xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise NoConvergence("root iteration budget exhausted",
                        bracket=(min(a, c), max(a, c)), residual=fb)


def grow_bracket_upper(f, lo: float, width: float) -> tuple[float, float]:
    """Expand [lo, lo+width, ...], doubling the width, until f changes sign.

    Returns a sign-change interval (a, b) with lo <= a < b.  Used for
    roots known to exist somewhere to the right of lo; raises
    NoConvergence after 200 steps.
    """
    fa = f(lo)
    if fa == 0.0:
        return lo, lo
    a = lo
    for _ in range(200):
        b = a + width
        fb = f(b)
        if fb == 0.0 or (fa < 0.0) != (fb < 0.0):
            return a, b
        a, fa = b, fb
        width *= 2.0
    raise NoConvergence("no sign change while growing bracket",
                        bracket=(lo, a), residual=fa)


def golden_section_max(f, a: float, b: float) -> tuple[float, float]:
    """Maximize a unimodal f on [a, b]; returns (x, f(x)).

    Localizes the maximizer to width 1e-12*max(1, |x|) in <= 400 steps.
    Interior maxima of smooth functions cannot be pinned tighter than
    ~sqrt(eps) this way; callers needing more polish the stationarity
    equation.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(400):
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Classic adaptive Simpson with Richardson correction; raises
    QuadratureFailure when its budget of 100,000 intervals is exhausted.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, tol)]
    total = 0.0
    used = 0
    while stack:
        used += 1
        if used > 100_000:
            raise QuadratureFailure(
                f"interval budget 100000 exhausted on [{a}, {b}]")
        a0, b0, fa0, fm0, fb0, whole0, tol0 = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm = f(0.5 * (a0 + m0))
        rm = f(0.5 * (m0 + b0))
        left = (m0 - a0) / 6.0 * (fa0 + 4.0 * lm + fm0)
        right = (b0 - m0) / 6.0 * (fm0 + 4.0 * rm + fb0)
        err = left + right - whole0
        if abs(err) <= 15.0 * tol0:
            total += left + right + err / 15.0
        else:
            half = 0.5 * tol0
            stack.append((a0, m0, fa0, lm, fm0, left, half))
            stack.append((m0, b0, fm0, rm, fb0, right, half))
    return total
