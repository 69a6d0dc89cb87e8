"""Partitions, exponent sequences, and the dimension polynomial.

Two partition flavors appear throughout:

 * IntegerPartition: weakly decreasing nonnegative integers, the usual
   combinatorial object.
 * RealPartition: real parts subject to the strict chain

       lambda_1 > lambda_2 - 1 > ... > lambda_n - (n-1) > -n,

   equivalently: the shifted parts lambda_i - (i-1) strictly decrease and
   the last part exceeds -1.  Earlier parts are bounded only by
   lambda_i > -(n-i+1), so they may be -1 or below: (0, 1/2, 1) has the
   partition (-1, -1/2).  Appending zeros never breaks the chain, and two
   real partitions are equal when they agree up to trailing zeros.

Exponent sequences 0 = r_0 < r_1 < ... < r_n and real partitions are two
coordinates for the same data:

    lambda_k = r_n - r_{k-1} - (n-k+1),      k = 1..n,
    r_k      = lambda_1 - lambda_{k+1} + k,  k = 0..n-1,   r_n = lambda_1 + n.

The dimension f_lambda(n) has one route, the pairwise (Weyl) product of
`dimension`, for integer and real partitions alike.
`interlacing_partitions` indexes the one-variable branching of
`schur.branch_last_variable`.  The cross-checks (conjugates, hook
lengths, contents, the Frobenius form and the hook-content product for
the dimension) live with the tests, in `tests/oracles.py`.
"""

from fractions import Fraction

from .arith import all_exact, is_integral, simplify

FLOAT_SLACK = 1e-12


def _coerce_parts(parts):
    out = []
    for p in parts:
        # ints and floats first: the Fraction test goes through the
        # abstract-class machinery of `numbers`
        if isinstance(p, (int, float)):
            out.append(p)
        elif isinstance(p, Fraction):
            out.append(simplify(p))
        else:
            raise TypeError(f"partition part of unsupported type {type(p).__name__}")
    return tuple(out)


def _strip_zeros(parts):
    parts = list(parts)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


class RealPartition:
    """A real partition; parts kept verbatim, so trailing zeros record the
    ambient length n."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = _coerce_parts(parts)
        slack = 0 if all_exact(parts) else FLOAT_SLACK
        shifted = [p - i for i, p in enumerate(parts)]
        for i in range(len(shifted) - 1):
            if not shifted[i] > shifted[i + 1] - slack:
                raise ValueError(
                    f"real partition chain violated at position {i + 1}: {parts}")
        if parts and not parts[-1] > -1 - slack:
            raise ValueError(f"real partition part below -1: {parts}")
        self.parts = parts

    @property
    def n(self):
        return len(self.parts)

    def padded(self, n):
        if n < len(self.parts):
            raise ValueError(f"cannot pad {self.parts} down to length {n}")
        return RealPartition(self.parts + (0,) * (n - len(self.parts)))

    def stripped(self):
        return _strip_zeros(self.parts)

    def __eq__(self, other):
        if isinstance(other, RealPartition):
            return self.stripped() == other.stripped()
        return NotImplemented

    def __hash__(self):
        return hash(self.stripped())

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"RealPartition{self.parts}"


class IntegerPartition:
    """Weakly decreasing nonnegative integers; trailing zeros stripped."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = _strip_zeros(int(p) for p in parts)
        for p in parts:
            if p < 0:
                raise ValueError(f"negative part in integer partition: {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def length(self):
        return len(self.parts)

    def weight(self):
        return sum(self.parts)

    def as_real(self, n=None):
        n = len(self.parts) if n is None else n
        if n < len(self.parts):
            raise ValueError("ambient length shorter than the partition")
        return RealPartition(self.parts + (0,) * (n - len(self.parts)))

    def __eq__(self, other):
        if isinstance(other, IntegerPartition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"IntegerPartition{self.parts}"


class ExponentSequence:
    """Strictly increasing exponents 0 = r_0 < r_1 < ... < r_n of a Muntz
    space span(1, t^{r_1}, ..., t^{r_n})."""

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        r = _coerce_parts(exponents)
        if not r:
            raise ValueError("exponent sequence cannot be empty")
        if r[0] != 0:
            raise ValueError(f"exponent sequence must start at 0: {r}")
        for a, b in zip(r, r[1:]):
            if not b > a:
                raise ValueError(f"exponents must strictly increase: {r}")
        self.exponents = r

    @property
    def n(self):
        return len(self.exponents) - 1

    def is_integer(self):
        return all(is_integral(x) for x in self.exponents)

    def __eq__(self, other):
        if isinstance(other, ExponentSequence):
            return self.exponents == other.exponents
        return NotImplemented

    def __hash__(self):
        return hash(self.exponents)

    def __len__(self):
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __getitem__(self, i):
        return self.exponents[i]

    def __repr__(self):
        return f"ExponentSequence{self.exponents}"


def as_exponents(spec):
    if isinstance(spec, ExponentSequence):
        return spec
    return ExponentSequence(spec)


def partition_parts(lam):
    """Raw parts of any partition-like argument."""
    if isinstance(lam, (RealPartition, IntegerPartition)):
        return lam.parts
    return _coerce_parts(lam)


def partition_from_exponents(exponents):
    """lambda_k = r_n - r_{k-1} - (n - k + 1); integer exponents give
    integer parts."""
    r = as_exponents(exponents)
    n = r.n
    parts = [r[n] - r[k - 1] - (n - k + 1) for k in range(1, n + 1)]
    return RealPartition(parts)


def exponents_from_partition(lam, n=None):
    """Inverse map: r_k = lambda_1 - lambda_{k+1} + k, r_n = lambda_1 + n."""
    parts = partition_parts(lam)
    n = len(parts) if n is None else n
    if n < len(parts):
        raise ValueError("ambient length shorter than the partition")
    parts = parts + (0,) * (n - len(parts))
    if n == 0:
        return ExponentSequence((0,))
    lam1 = parts[0]
    r = [lam1 - parts[k] + k for k in range(1, n)]
    return ExponentSequence([0] + r + [lam1 + n])


def muntz_tableau(lam):
    """The n+1 partitions describing the monomials' blossoms.

    With lambda = (lambda_1..lambda_n) (ambient length taken from the
    stored parts):

      entry 0:       (lambda_2, ..., lambda_n)
      entry i:       (lambda_1 + 1, ..., lambda_i + 1, lambda_{i+2}, ..., lambda_n)
      entry n:       (lambda_1 + 1, ..., lambda_n + 1)
    """
    parts = partition_parts(lam)
    n = len(parts)
    rows = []
    for i in range(n + 1):
        bumped = tuple(p + 1 for p in parts[:i])
        rows.append(RealPartition(bumped + parts[i + 1:]))
    return tuple(rows)


def interlacing_partitions(mu):
    """All integer partitions eta with mu_{i+1} <= eta_i <= mu_i.

    These index the one-variable branching of Schur functions; eta runs
    over partitions whose diagram interlaces mu's (a horizontal strip is
    removed)."""
    parts = _strip_zeros(int(p) for p in partition_parts(mu))
    if not parts:
        yield IntegerPartition(())
        return
    bounds = []
    for i, p in enumerate(parts):
        lo = parts[i + 1] if i + 1 < len(parts) else 0
        bounds.append((lo, p))

    def rec(i, chosen):
        if i == len(bounds):
            yield IntegerPartition(chosen)
            return
        lo, hi = bounds[i]
        for v in range(hi, lo - 1, -1):
            yield from rec(i + 1, chosen + [v])

    yield from rec(0, [])


def dimension(lam, n):
    """f_lambda(n) = S_lambda(1, ..., 1) with n ones: the product over
    1 <= i < j <= n of (lambda_i - lambda_j + j - i)/(j - i), with lambda
    zero-padded to n.  Exact parts give an exact result, an int for an
    integer partition.

    More parts than variables gives 0 for an integer partition (no
    semistandard tableau has more than n rows) and is rejected for any
    other partition, where that convention does not exist."""
    parts = _strip_zeros(partition_parts(lam))
    if len(parts) > n:
        if all(is_integral(p) and p >= 0 for p in parts) and all(
                a >= b for a, b in zip(parts, parts[1:])):
            return 0
        raise ValueError(
            f"real partition with {len(parts)} parts in {n} variables")
    parts = parts + (0,) * (n - len(parts))
    exact = all_exact(parts)
    num = Fraction(1) if exact else 1.0
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num = num * (parts[i] - parts[j] + j - i)
            den *= j - i
    return simplify(num / den) if exact else num / den
