"""Blossoms of Muntz-space curves: one corner-cutting pyramid.

The blossom f_P of a curve P in span(1, t^{r_1}, .., t^{r_n}) is the
symmetric functional of n arguments in [0, 1] with f_P(t, .., t) = P(t)
and

    p_k = f_P(0^{n-k}, 1^k)        (control points).

`blossom_pyramid` forms it by pseudo-affine corner cutting: at level L,
node i,

    p_i^L = (1 - alpha) p_i^{L-1} + alpha p_{i+1}^{L-1}
          = f_P(0^{n-L-i}, 1^i, u_1, .., u_L),
    alpha = alpha(0^{n-L-i}, 1^i, u_1..u_{L-1}; u_L),

which generalizes the barycentric weight of the classical algorithm.
Every weight is u_L times two ratios of Schur values
S_w(a, L) = S_{lam[w:w+a+L]}(1^a, u_1, .., u_L), w in {0, 1}, over
windows of the space's partition lam, each ratio within one window; the
pyramid forms each value once.  The de Casteljau pyramid (`de_casteljau`)
is its diagonal u_1 = .. = u_n = t, where every value is a two-point
value (`schur.schur_window`), at a float t from blocks of one pair of
matrix exponentials of the space.  Its left edge holds the control
points of s -> P(t s), its right edge those of P on [t, 1] in the
Chebyshev-Bernstein basis.

alpha is provably in [0, 1] for the schedule used here only through the
total positivity of the basis; the implementation checks alpha in
[-1e-12, 1 + 1e-12] at every node, raises SingularityError when it falls
outside (also under `python -O`), and never clamps.  A weight that is
not finite, from a float Schur value that left the float range, a float
Schur value that is 0 or subnormal, and a Schur value that could not be
formed are SingularityErrors naming the argument.
"""

import math
import sys
from fractions import Fraction

from .arith import (SingularityError, all_exact, exact_div, is_exact, lerp,
                    simplify)
from .partitions import as_exponents, partition_from_exponents
from .schur import schur, schur_window

ALPHA_SLACK = 1e-12


def monomial_control_points(exponents, k):
    """Control points of t^{r_k}: zeros below index k, then the telescoping
    products prod_{i=j+1}^n (1 - r_k/r_i), and finally 1."""
    r = as_exponents(exponents)
    n = r.n
    if not 0 <= k <= n:
        raise ValueError(f"monomial index {k} outside 0..{n}")
    exact = all(is_exact(x) for x in r.exponents)
    zero = Fraction(0) if exact else 0.0
    out = [zero] * k
    for j in range(k, n):
        p = Fraction(1) if exact else 1.0
        for i in range(j + 1, n + 1):
            p = p * (1 - exact_div(r[k], r[i]))
        out.append(simplify(p) if exact else p)
    out.append(1 if exact else 1.0)
    return tuple(out)


def _alpha(t, mu_t, eta_1, mu_1, eta_t):
    """t (S_mu(args, t) / S_mu(args, 1)) (S_eta(args, 1) / S_eta(args, t))
    from its four Schur values (`pseudo_affinity` names them).  Each ratio
    holds two values of one shape, so no product of two values is formed:
    it could leave the float range where the values and the weight do
    not.  A zero denominator, a float value that is 0 or subnormal (its
    digits are gone) and a weight that is not finite (inf or nan) raise
    SingularityError naming t."""
    if mu_1 == 0 or eta_t == 0:
        raise SingularityError(f"pseudo-affinity denominator vanished at t={t}")
    for value in (mu_t, eta_1, mu_1, eta_t):
        if not is_exact(value) and abs(value) < sys.float_info.min:
            raise SingularityError(
                f"a Schur value of the pseudo-affinity at t={t} is {value}, "
                f"below the normal float range")
    alpha = t * exact_div(mu_t, mu_1) * exact_div(eta_1, eta_t)
    if not -math.inf < alpha < math.inf:
        raise SingularityError(f"pseudo-affinity {alpha} is not finite at t={t}")
    return alpha


def _window_values(parts, us):
    """S(w, a, b) = S_{parts[w:w+a+b]}(1^a, us[:b]), us a tuple, over
    windows of a space's partition `parts` padded by one zero: a function
    that forms each value on first use and keeps it, by `schur_window`
    where us[:b] take one value (at a float value inside (0, 1), a minor
    of blocks of the Opitz pair of the space's ladder) and by `schur`
    otherwise."""
    run = next((b for b, u in enumerate(us) if u != us[0]), len(us))
    table = {}

    def S(w, a, b):
        if (w, a, b) not in table:
            if b <= run:
                table[w, a, b] = schur_window(parts, w, a, b,
                                              us[0] if us else 1)
            else:
                table[w, a, b] = schur(parts[w:w + a + b], (1,) * a + us[:b])
        return table[w, a, b]

    return S


def pseudo_affinity(exponents, zeros, args, t):
    """alpha(0^zeros, args; 0, 1, t): the corner-cutting weight on [0, 1].

    With lam the space's partition padded by one zero, mu its first
    n-zeros parts and eta the next window (lam_2..lam_{n-zeros+1}),

        alpha = t S_mu(args, t) S_eta(args, 1) / (S_mu(args, 1) S_eta(args, t)),

    each value formed as the pyramid forms it, with the ones among the
    args as the window's 1^a."""
    r = as_exponents(exponents)
    n = r.n
    args = tuple(args)
    if len(args) + zeros + 1 != n:
        raise ValueError(f"pseudo-affinity needs {n - 1} arguments total")
    if t == 0:
        return 0 if is_exact(t) else 0.0
    if not 0 < t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    ones = args.count(1)
    us = tuple(u for u in args if u != 1)
    S = _window_values(partition_from_exponents(r).parts + (0,), us + (t,))
    m = len(us)
    return _alpha(t, S(0, ones, m + 1), S(1, ones + 1, m), S(0, ones + 1, m),
                  S(1, ones, m + 1))


def blossom_pyramid(points, exponents, args):
    """The blossom f_P(u_1, .., u_n) of the curve with control points
    `points`, by corner cutting; returns (value, pyramid levels).

    The args are cut in descending order, u_1 >= .. >= u_n, which the
    blossom's symmetry allows: zeros come last, so no Schur value sees a
    zero point.  (Over 20 real spaces each of orders 7 and 10, args in
    [0.05, 0.95], the worst apex error was 2e-14 of the polygon's
    diameter in this order, and 1.2e-13 and 3.6e-13 in the order
    given.)  Level L, node i holds f_P(0^{n-L-i}, 1^i, u_1, .., u_L).
    With lam the space's partition padded by one zero and

        S_w(a, L) = S_{lam[w:w+a+L]}(1^a, u_1, .., u_L),     w in {0, 1},
        alpha = u_L (S_0(i, L) / S_0(i+1, L-1)) (S_1(i+1, L-1) / S_1(i, L)),

    each S_w(a, L) is formed once per pyramid, on first use: by
    `schur.schur_window` where u_1..u_L take one value, by `schur`
    otherwise.  S_0(i+1, L-1), for one, serves both node (L, i) and node
    (L-1, i+1), so a pyramid evaluates at most n(n+3) Schur values, not
    4 per node.  At u_L = 0 and at u_L = 1 the weight is u_L and no
    Schur value is formed.  Real exponents, or a float among the args,
    give the pyramid at the floats of the args.  Args of the wrong count
    or outside [0, 1] raise ValueError naming them."""
    r = as_exponents(exponents)
    n = r.n
    points = tuple(points)
    if len(points) != n + 1:
        raise ValueError(f"expected {n + 1} control points, got {len(points)}")
    args = tuple(args)
    if len(args) != n:
        raise ValueError(f"the blossom of an order-{n} space takes {n} "
                         f"arguments, got {len(args)}: {args}")
    outside = [u for u in args if not 0 <= u <= 1]
    if outside:
        raise ValueError(f"blossom arguments {outside} outside [0, 1]")
    if not (r.is_integer() and all_exact(args)):
        # at an exact u only the integral shapes would be exact, and the
        # levels would differ from those at float(u) in the last bits
        args = tuple(float(u) for u in args)
    args = tuple(sorted(args, reverse=True))
    S = _window_values(partition_from_exponents(r).parts + (0,), args)
    levels = [points]
    prev = points
    for level, u in enumerate(args, 1):
        # an exact 1 is the Fraction that the ratio of Schur values gives
        end = None
        if u == 0:
            end = 0 if is_exact(u) else 0.0
        elif u == 1:
            end = Fraction(1) if is_exact(u) else 1.0
        row = []
        for i in range(n - level + 1):
            if end is not None:
                alpha = end
            else:
                try:
                    values = (S(0, i, level), S(1, i + 1, level - 1),
                              S(0, i + 1, level - 1), S(1, i, level))
                except SingularityError as error:
                    where = (f"t={u}" if len(set(args)) == 1
                             else f"args={args}")
                    raise SingularityError(
                        f"de Casteljau pyramid at {where}: {error}") from None
                alpha = _alpha(u, *values)
            if not -ALPHA_SLACK <= alpha <= 1 + ALPHA_SLACK:
                raise SingularityError(
                    f"pseudo-affinity {alpha} outside [0,1] at level {level}, node {i}")
            row.append(lerp(prev[i], prev[i + 1], alpha))
        prev = tuple(row)
        levels.append(prev)
    return prev[0], levels


def de_casteljau(points, exponents, t):
    """Evaluate by corner cutting; returns (value, pyramid levels): the
    blossom pyramid at (t, .., t), whose node (L, i) holds
    f_P(0^{n-L-i}, 1^i, t^L) (`blossom_pyramid`).  Every Schur value of
    its weights is a two-point value S_{lam[w:w+a+b]}(1^a, t^b) by
    `schur.schur_window`; at a float t inside (0, 1) each is a minor of a
    principal block of one scaled Opitz pair, that of the space's ladder,
    so the pyramid forms one matrix exponential pair.  At t = 0 and at
    t = 1 every alpha is t and no Schur value is formed.  Real exponents
    give the pyramid at float(t)."""
    r = as_exponents(exponents)
    if not 0 <= t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    return blossom_pyramid(points, r, (t,) * r.n)
