"""Divided differences of f_t(x) = t**x in the exponent nodes x, by one
float kernel (Opitz): for J = diag(x_0..x_n) plus a superdiagonal
u_0..u_{n-1},

    exp(ln(t) J)_{ij} = u_i..u_{j-1} [x_i..x_j] f_t,

so one matrix exponential holds the divided differences over every run
of consecutive nodes.  `opitz_matrix` computes it by Taylor scaling and
squaring, for a stack of such matrices and a batch of parameters, scaled
so that no entry leaves the float range.  Its two callers:

 * the basis of real exponents (`gelfond_basis.basis_table`): with the
   exponents reversed and the superdiagonal r_n..r_1, row 0 holds
   H_n..H_0 up to powers of t and ln t;
 * the two-point Schur values (`schur._two_point`): with the superdiagonal
   1, minors of the matrix of a ladder and of the ladder negated and
   reversed, or of their principal blocks, one pair for every window of
   a space's ladder at one t.

Integer basis polynomials are built from their own residue form.  The
naive partial-fraction sum, the classical recursion with confluent
blocks and the generic recursion on any callable, which only tests use
to check this kernel, live in `tests/oracles.py`.
"""

import functools
import math

import numpy as np

# opitz_matrix sums the Taylor series of exp(h J') once |h| is at most
# theta, where J' = J / sigma has entries of size at most 1.  Entry (i, j)
# of the series is h^d/d! (1 + O(|h|)) with d = j - i, and keeping
# TAYLOR_EXTRA terms past the first of every entry leaves out at most
# TAYLOR_THETA^19/19! < 2^-53 of it for theta = TAYLOR_THETA.
TAYLOR_THETA = 1.0
TAYLOR_EXTRA = 18

# The Taylor table divides term m by m!, a float up to 170!.  From 111
# nodes the table has 256 terms, and those past 170! are left out.  The
# kernel serves at most MAX_NODES nodes, spaces up to order 170, where the
# first term of every entry is still in the table: on random real spaces
# (gaps 0.3-2.5) orders 110, 140 and 170 came within 7e-15 relative of a
# 600-digit partial-fraction sum at t in {0.05, 0.5, 0.95, 0.999}; at
# order 200 and t = 0.05 one value was 1.1e-4 off.
MAX_NODES = 171


def opitz_matrix(stack, ts):
    """The scaled matrix exponentials of a stack of bidiagonal matrices at
    every t of `ts` in (0, 1): an array of shape (len(ts), len(stack),
    n + 1, n + 1).  `stack` is a tuple of (nodes, upper) tuples of one
    size, each J = diag(x_0..x_n) plus the superdiagonal u_0..u_{n-1} =
    `upper`, and its matrix is Z with

        Z_ij = |ln t|^{i-j} t^{-x_j} |u_i..u_{j-1} [x_i..x_j] t^x|  (i <= j),

    ones on the diagonal and zeros below it.  Z does not change when
    every node is shifted by one constant.  For nonincreasing nodes and
    the superdiagonal 1, Z_ij = |[y_i..y_j] e^{y - y_j}|, y_k = ln(t) x_k,
    lies in (0, 1/(j-i)!]; a superdiagonal u multiplies entry (i, j) by
    u_i..u_{j-1}, which keeps in range the entries of nodes far apart,
    such as (1e300, 1e200, 0), whose entries at u = 1 are below it.

    Scaling and squaring (Higham, SIMAX 2005), as McCurdy, Ng & Parlett
    (Math. Comp. 1984) apply it to divided differences of exp: h = ln(t)
    is halved s times, until |h| sigma <= theta (`_opitz_setup`), sigma
    the power of two at or above 1 and every |x_i| and |u_i|.  The
    Taylor polynomial of exp(h J) is one product of the powers of
    |h| sigma with the table of `_opitz_setup`, entry (i, j) taking its
    power d = j - i out of the terms; times exp(-h x_j) in column j, it
    is Z at h times sigma^{j-i}.  Each of the s squarings of exp(h J) is
    then, on Y = 2^{(k-s)(j-i)} Z after k of them,

        Y <- Y (E o Y),      E_mj = exp(h (x_m - x_j)),  m <= j,

    whose diagonal stays 1 and whose sums have terms of one sign, so
    nothing cancels; E <= 1 for nonincreasing nodes.  Y starts as Z at
    h times 2^{-s(j-i)} and ends as Z: the powers of two leave the bits
    alone wherever no entry is subnormal.  Repeated and nearly
    coincident nodes need no special case.

    Parameters are grouped by s.  Each has its own Taylor product,
    squarings and exponentials, and no operation mixes parameters, so a
    batch gives the bits that a batch of one gives.  Nodes or a
    superdiagonal that are not finite or reach 2^1023 in magnitude, an
    empty node tuple and t outside (0, 1) raise ValueError."""
    t = np.asarray(ts, dtype=float)
    if not all(0 < v < 1 for v in t.tolist()):
        raise ValueError("t must be in (0, 1)")
    setup = _opitz_setup(stack)
    lt = np.log(t)
    # |ln t| sigma / theta <= 2^s, sigma = 2^e, without forming the product
    e, theta = setup[:2]
    s = [max(math.frexp(-v / theta)[1] + e, 0) for v in lt.tolist()]
    groups = set(s)
    if len(groups) == 1:    # a batch of one, the common call
        return _squared(setup, lt, *groups)
    s = np.array(s)
    out = np.empty((t.size,) + setup[5].shape)
    for g in groups:
        rows = s == g
        out[rows] = _squared(setup, lt[rows], g)
    return out


def _squared(setup, lt, s):
    """Z at the parameters e^lt that take s squarings (`opitz_matrix`)."""
    e, _, order, table, columns, gaps, shift = setup
    size = shift.shape[0]
    h = np.ldexp(lt, -s)
    z = (np.ldexp(-lt, e - s)[:, None, None] ** order @ table).reshape(
        (h.size,) + gaps.shape)
    z *= np.exp(h[:, None, None] * columns)[..., None, :]
    z = np.ldexp(z, (e - s) * shift)
    z.reshape(-1, size * size)[:, ::size + 1] = 1.0
    # h 2^k (x_m - x_j) overflows to -inf for nodes far apart, and
    # exp(-inf) = 0 is the entry wanted
    with np.errstate(over="ignore"):
        squares = np.exp(np.ldexp(h, np.arange(s)[:, None])[..., None, None, None]
                         * gaps)
    for e in squares:
        z = z @ (e * z)
    return z


@functools.lru_cache(maxsize=32)
def _opitz_setup(stack):
    """What `opitz_matrix` needs of its stack alone: e, sigma = 2^e; the Taylor
    radius theta, 2 where the terms suffice and TAYLOR_THETA otherwise;
    the exponents k and the Taylor table, whose row k holds the
    coefficient of |y|^k of every matrix of the stack side by side, y =
    h sigma (entry (i, j) is (-1)^k times entry (i, j) of term k + j - i,
    zero past the last term and below the diagonal: `_opitz_layout`);
    the column exponents -x; the node gaps x_m - x_j over m <= j; and
    the shifts j - i, zero below the diagonal.  The terms (J / sigma)^m
    / m! run to a power of two above n + TAYLOR_EXTRA, built by doubling:
    J^k..J^{2k-1} are J^0..J^{k-1} times J^k.  Cached for the 32 stacks
    used last, read-only: a pyramid and the Schur route of `oracle` use
    one stack per space, the pair of its ladder, and its basis one more.
    More than MAX_NODES nodes raise ValueError naming the order."""
    x = np.array([nodes for nodes, _ in stack], dtype=float)
    u = np.array([upper for _, upper in stack], dtype=float).reshape(len(x), -1)
    depth, size = x.shape
    if not size:
        raise ValueError("at least one node required")
    if size > MAX_NODES:
        raise ValueError(f"order {size - 1} is above {MAX_NODES - 1}, the "
                         f"largest order of the float divided differences")
    top = np.abs(np.append(x, u)).max(initial=1.0)
    if not top < 2.0 ** 1023:
        raise ValueError(f"nodes and superdiagonal entries must be finite and "
                         f"below 2^1023 in magnitude, got {stack}")
    e = math.ceil(math.log2(top))
    sigma = 2.0 ** e
    count = 1 << (size - 1 + TAYLOR_EXTRA).bit_length()
    index, denominators, order, shift = _opitz_layout(size, count, depth)
    # the powers J^m / sigma^m, and past them one zero term
    terms = np.zeros((count + 1, depth, size * size))
    terms[0, :, ::size + 1] = 1.0
    terms[1, :, ::size + 1] = x / sigma
    terms[1, :, 1::size + 1] = u / sigma
    terms = terms.reshape(count + 1, depth, size, size)
    k = 2
    while k < count:
        terms[k:2 * k] = terms[:k] @ (terms[k - 1] @ terms[1])
        k *= 2
    table = (terms.ravel()[index] / denominators).reshape(count, -1)
    # entry (i, j) keeps K = count - (j - i) terms past its first, and
    # leaves out at most e^{2 theta} theta^K / K! of itself: below 2^-53
    # for theta = 2 once K >= 26
    theta = 2.0 if count - size >= 25 else TAYLOR_THETA
    out = (e, theta, order, table, -x, np.triu(x[:, :, None] - x[:, None, :]),
           shift)
    for array in out[3:]:
        array.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _opitz_layout(size, count, depth):
    """What `_opitz_setup` needs of the matrix size, the number of Taylor
    terms and the depth of the stack alone: the flat index, in the terms
    followed by one zero term, of term m = k + j - i at entry (i, j) of
    each matrix, and (-1)^k m!, so that row k of the table is the terms
    it indexes over these (index `count`, the zero term, past the last
    term and below the diagonal); the exponents k; and the shifts j - i,
    zero below the diagonal.  Read-only.  Built inside `_opitz_setup`
    instead, they would add 45-85 us to each of its misses, which take
    about 50 us at n = 7."""
    offsets = np.arange(size)
    shift = offsets - offsets[:, None]
    k = np.arange(count)[:, None, None]
    term = np.where(shift < 0, count, np.minimum(k + shift, count))
    # m! past 170! is beyond the float range: those terms are left out
    factorials = [float(math.factorial(m)) if m < MAX_NODES else math.inf
                  for m in range(count)] + [1.0]
    out = (((term * depth)[:, None] + np.arange(depth)[:, None, None])
           * size * size + offsets[:, None] * size + offsets,
           (np.take(factorials, term) * (-1.0) ** k)[:, None],
           np.arange(count, dtype=float), np.maximum(shift, 0))
    for array in out:
        array.flags.writeable = False
    return out
