"""The one multiple-precision reference behind the test oracles: Psi, a
profile and weight evaluator, a piecewise integral, the Luxemburg and Amemiya
norms and the membership rule.  It reads only the public fields of
orlicz_kit's data classes and calls none of its functions."""

import math
from collections import namedtuple

import mpmath as mp

from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

INF = mp.inf


#: Psi and its density psi, the arguments of the kinks of Psi, the growth
#: class ('poly' of some degree, 'exp' or 'threshold') and the order alpha of
#: Psi(s) ~ s**alpha at 0 (inf when Psi vanishes near 0).
Young = namedtuple("Young", "Psi psi kinks growth degree alpha", defaults=((), None, 1.0, None))


def _tabulated(y):
    """Psi of the piecewise-linear density through (xs, ys), constant past the
    last breakpoint and inf past the limit; a repeated x is a jump.  Near 0
    Psi(s) ~ s where the density starts positive, ~ s**2 where it starts
    rising from 0, and vanishes where it starts flat at 0."""
    xs, ys = [mp.mpf(x) for x in y.xs], [mp.mpf(v) for v in y.ys]
    ends = zip(xs, xs[1:] + [INF], ys, ys[1:] + ys[-1:])
    segments = [(a, b, ya, (yb - ya) / (b - a)) for a, b, ya, yb in ends if b > a]

    def Psi(s):
        us = [(min(s, b) - a, ya, slope) for a, b, ya, slope in segments]
        return INF if s > y.limit else mp.fsum(ya * u + slope * u * u / 2 for u, ya, slope in us if u > 0)

    _, _, y0, slope0 = segments[0]
    alpha = 1 if y0 > 0 else 2 if slope0 > 0 else INF
    return Young(Psi, None, (*y.xs, y.limit), "threshold" if y.limit < math.inf else "poly", alpha=alpha)


def _conjugate(y):
    """Phi(x) = x w - Psi(w) where the base density psi(w) = x, found by
    mp.findroot in log w inside a doubling bracket; 0 up to psi(0)."""
    base = young(y.base)

    def inverse(x):
        if x <= base.psi(0):
            return mp.mpf(0)
        lo, hi = mp.mpf(-1), mp.mpf(1)
        while base.psi(mp.exp(hi)) < x:
            lo, hi = hi, 2 * hi
        while base.psi(mp.exp(lo)) >= x:
            lo, hi = 2 * lo, lo
        return mp.exp(mp.findroot(lambda u: base.psi(mp.exp(u)) - x, (lo, hi), solver="anderson"))

    def Phi(x):
        w = inverse(x)
        return x * w - base.Psi(w)

    return Young(Phi, inverse)


#: The reference of each Young function class, or how to build it from the
#: instance's fields.
TABLE = {
    yg.PowerYoung: lambda y: Young(lambda s: y.coef * s ** mp.mpf(y.exponent),
                                   lambda s: y.coef * y.exponent * s ** mp.mpf(y.exponent - 1),
                                   (), "poly", y.exponent, y.exponent),
    yg.ThresholdYoung: lambda y: Young(lambda s: mp.mpf(0) if s <= y.limit else INF, None, (y.limit,),
                                       "threshold", alpha=INF),
    yg.TabulatedYoung: _tabulated,
    yg.NumericConjugate: _conjugate,
    yg.CoshMinusOne: Young(lambda s: 2 * mp.sinh(s / 2) ** 2, mp.sinh, (), "exp", alpha=2),
    yg.LlogYoung: Young(lambda s: s * mp.asinh(s) - s * s / (1 + mp.sqrt(1 + s * s)), mp.asinh, (), "poly", 1, 2),
    yg.XLog1p: Young(lambda s: s * mp.log1p(s), lambda s: mp.log1p(s) + s / (1 + s), (), "poly", 1, 2),
    yg.ZygmundLLogL: Young(lambda s: s * mp.log(s) if s > 1 else mp.mpf(0),
                           lambda s: 1 + mp.log(s) if s > 1 else mp.mpf(0), (1,), "poly", 1, INF),
    yg.ZygmundExp: Young(lambda s: s if s <= 1 else mp.exp(s - 1),
                         lambda s: mp.mpf(1) if s <= 1 else mp.exp(s - 1), (1,), "exp", alpha=1),
}


def young(y) -> Young:
    """The reference of a Young function."""
    ref = TABLE[type(y)]
    return ref if isinstance(ref, Young) else ref(y)


def pieces(prof):
    """A profile, or a weight (None for Lebesgue, 1 on (0, inf)), as pieces
    (a, b, value, crossing, origin): crossing maps a level to where an
    analytic piece falls through it (None on a step), and origin is
    t - (offset + u) on a power tail, -inf on an exponential tail."""
    if prof is None:
        return [(mp.mpf(0), INF, lambda t: mp.mpf(1), None, None)]
    out, h, edge = [], prof.head, mp.mpf(0 if prof.head is None else prof.head.width)
    if isinstance(h, rr.LogSingularity):
        c = mp.mpf(h.coeff)
        out.append((mp.mpf(0), edge, lambda t: c * mp.log(1 / t), lambda v: mp.exp(-v / c), None))
    elif h is not None:
        c, th = mp.mpf(h.coeff), mp.mpf(h.exponent)
        out.append((mp.mpf(0), edge, lambda t: c * t**-th, lambda v: (c / v) ** (1 / th), None))
    for level, length in prof.steps:
        out.append((edge, edge + length, lambda t, v=mp.mpf(level): v, None, None))
        edge += length
    tail = prof.tail
    if isinstance(tail, rr.ExponentialTail):
        a, r = mp.mpf(tail.amplitude), mp.mpf(tail.rate)
        out.append((edge, INF, lambda t: a * mp.exp(-r * (t - edge)), lambda v: edge + mp.log(a / v) / r, -INF))
    elif tail is not None:
        a, g, o = mp.mpf(tail.amplitude), mp.mpf(tail.exponent), edge - tail.offset
        out.append((edge, INF, lambda t: a * (t - o) ** -g, lambda v: o + (a / v) ** (1 / g), o))
    return out


def _quad(fn, a, b):
    """mp.quad to the working precision relative to the value: its error test
    is absolute, so a value far from 1 is integrated again over itself."""
    first = mp.quad(fn, [a, b])
    if first == 0 or 1e-3 < abs(first) < 1e3:
        return first
    return first * mp.quad(lambda x: fn(x) / first, [a, b])


def integral(g, prof, weight=None, end=INF, levels=(), dps=20):
    """integral_0^end g(p(t), w(t)) dt, cut at every breakpoint of the
    profile p and the weight w and where p crosses one of the levels.  A
    piece at 0 is taken in y = log(1/t) and a power tail in
    s = log(offset + u), where both decay exponentially."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for a1, b1, p, crossing, o1 in pieces(prof):
            for a2, b2, w, w_crossing, o2 in pieces(weight):
                a, b = max(a1, a2), min(b1, b2, end)
                if b <= a:
                    continue
                if crossing is None and w_crossing is None:  # a step against a step
                    total += g(p(a), w(a)) * (b - a)
                    continue
                cuts = {x for x in map(crossing, levels) if a < x < b} if crossing else set()
                pts = sorted({a, b, *cuts, *([mp.mpf(1)] if a == 0 and b == INF else [])})
                # an exponential factor decays fast enough as it is
                origin = None if -INF in (o1, o2) else o1 if o1 is not None else o2
                f = lambda t, p=p, w=w: g(p(t), w(t))  # noqa: E731
                for x0, x1 in zip(pts, pts[1:]):
                    if x0 == 0:
                        total += _quad(lambda y: f(mp.exp(-y)) * mp.exp(-y), -mp.log(x1), INF)
                    elif x1 == INF and origin is not None:
                        total += _quad(lambda s: f(origin + mp.exp(s)) * mp.exp(s), mp.log(x0 - origin), INF)
                    else:
                        total += _quad(f, x0, x1)
        return total


def modular(y, f, weight=None, k=1, dps=20):
    """integral Psi(k f) w: a sum over the atoms of a simple function, or the
    integral of a profile cut where k p crosses a kink of Psi."""
    ref = young(y)
    with mp.workdps(dps):
        k = mp.mpf(k)
        if isinstance(f, rr.SimpleFunction):
            return mp.fsum(mp.mpf(m) * ref.Psi(k * abs(mp.mpf(v))) for v, m in f.atoms)
        return integral(lambda p, w: ref.Psi(k * p) * w, f, weight, levels=[b / k for b in ref.kinks if b > 0], dps=dps)


def luxemburg(y, f, weight=None):
    """The least lambda with M(f / lambda) <= 1, by plain bisection on lambda
    inside a doubling bracket, at 20 digits."""
    with mp.workdps(20):
        lo = hi = mp.mpf(1)
        while modular(y, f, weight, 1 / hi) > 1:
            lo, hi = hi, 2 * hi
        while modular(y, f, weight, 1 / lo) <= 1:
            lo, hi = lo / 2, lo
        while hi - lo > 1e-18 * hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if modular(y, f, weight, 1 / mid) <= 1 else (mid, hi)
        return hi


def amemiya(y, f, weight=None, centre=0.0, half=30.0, width=1e-20, dps=30):
    """min over k of (1 + M(k f)) / k by golden-section search on the unimodal
    objective in u = log k over centre +- half: (value, minimiser k)."""
    with mp.workdps(dps):
        def h(u):
            return (1 + modular(y, f, weight, mp.exp(u), dps)) / mp.exp(u)

        r = (mp.sqrt(5) - 1) / 2
        a, b = mp.mpf(centre - half), mp.mpf(centre + half)
        c, d = b - r * (b - a), a + r * (b - a)
        fc, fd = h(c), h(d)
        while b - a > width:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - r * (b - a)
                fc = h(c)
            else:
                a, c, fc = c, d, fd
                d = a + r * (b - a)
                fd = h(d)
        return min(fc, fd), mp.exp((a + b) / 2)


#: Psi(lambda p) w is integrable at 0 for small lambda iff the order theta_w
#: of an inverse-power weight head, plus what a head adds under Psi's growth
#: class, is below 1 (lambda c rate -> 0 under exp growth); other pairs
#: diverge.  Or iff Psi(lambda p) is 0 near 0 for small lambda: p bounded and
#: Psi vanishing near 0.
HEAD_ORDER = {
    ("log_singularity", "poly"): lambda head, degree: 0.0,
    ("log_singularity", "exp"): lambda head, degree: 0.0,
    ("inv_power", "poly"): lambda head, degree: head.exponent * degree,
}
#: At infinity it is integrable iff this order of a power tail, by the weight's
#: far field, is above 1; every other end is finite.
TAIL_ORDER = {
    ("power", "lebesgue"): lambda gamma, alpha, weight: gamma * alpha,
    ("power", "power"): lambda gamma, alpha, weight: gamma * alpha + weight.tail.exponent,
}


def member(y, prof, weight=None) -> bool:
    """The analytic rule: is Psi(lambda p) w integrable for some lambda > 0?"""
    ref = young(y)
    wh = None if weight is None else weight.head
    order = wh.exponent if isinstance(wh, rr.InvPowerSingularity) else 0.0
    if prof.head is not None:
        order += HEAD_ORDER.get((prof.head.kind, ref.growth), lambda *_: INF)(prof.head, ref.degree)
    far = "lebesgue" if weight is None else "zero" if weight.tail is None else weight.tail.kind
    tail_order = TAIL_ORDER.get((getattr(prof.tail, "kind", None), far))
    vanishes = prof.head is None and ref.alpha == INF
    return (order < 1 or vanishes) and (tail_order is None or tail_order(prof.tail.exponent, ref.alpha, weight) > 1)
