"""Divided differences of f_t(x) = t**x in the exponent nodes x, by one
float kernel (Opitz): for J = diag(x_0..x_n) plus a superdiagonal of
ones,

    exp(ln(t) J)_{ij} = [x_i..x_j] f_t,

so the last column of one matrix exponential holds [x_k..x_n] f_t for
every k.  `opitz_table` computes it by Taylor scaling and squaring on the
bidiagonal J, a batch of parameters at a time.  Any other superdiagonal u
is a diagonal similarity away and multiplies entry (i, j) by
u_i..u_{j-1}; with u_k = -r_{k+1} the last column is the basis H_0..H_n
itself, which is how every basis value of real exponents is computed
(`gelfond_basis.basis_table`).  Integer basis polynomials are built from
their own residue form.  `opitz_matrix` keeps the whole matrix at one
parameter, scaled so that no entry leaves the float range, together with
that of the nodes negated and reversed: the minors of the two give the
two-point Schur values (`schur._two_point`).

The naive partial-fraction sum, the classical recursion with confluent
blocks and the generic recursion on any callable, which only tests use
to check this kernel, live in `tests/oracles.py`.
"""

import functools
import math

import numpy as np

# opitz_table sums the Taylor series of exp(h J') once |h| is at
# most TAYLOR_THETA, where J' = J / sigma has entries of size at most 1.
# Entry (i, j) of the series is h^d/d! (1 + O(|h|)) with d = j - i, and
# keeping TAYLOR_EXTRA terms past the first of every entry leaves out at
# most TAYLOR_THETA^19/19! < 2^-53 of it.
TAYLOR_THETA = 1.0
TAYLOR_EXTRA = 18
# Parameters per block: bounds the (rows, terms/2, n+1, n+1) array of the
# first Estrin step.
BLOCK_ROWS = 64


@functools.lru_cache(maxsize=16)
def _taylor_terms(nodes, upper):
    """(x, sigma, terms): the nodes as an array, sigma the power of two at
    or above 1 and every |x_i| and |u_i|, and terms[m] = (J / sigma)^m / m!
    for m below a power of two that exceeds n + TAYLOR_EXTRA, where
    J = diag(x) plus the superdiagonal u = `upper`.  Built by doubling:
    J^k..J^{2k-1} are J^0..J^{k-1} times J^k.  Shared by callers, so
    read-only."""
    x = np.array(nodes, dtype=float)
    x.flags.writeable = False
    size = x.size
    top = max(1.0, float(np.abs(x).max()), *(abs(u) for u in upper))
    sigma = 2.0 ** math.ceil(math.log2(top))
    count = 1 << (size - 1 + TAYLOR_EXTRA).bit_length()
    terms = np.empty((count, size, size))
    terms[0] = np.eye(size)
    terms[1] = np.diag(x / sigma) + np.diag(np.array(upper) / sigma, k=1)
    k = 2
    while k < count:
        terms[k:2 * k] = terms[:k] @ (terms[k - 1] @ terms[1])
        k *= 2
    terms /= np.array([float(math.factorial(m)) for m in range(count)])[:, None, None]
    terms.flags.writeable = False
    return x, sigma, terms


def _checked_nodes(nodes):
    """The nodes as a tuple of floats: at least one, each finite and below
    2^1023 in magnitude, so that sigma, the power of two at or above
    every |x_i|, is a float."""
    x = tuple(float(v) for v in nodes)
    if not x:
        raise ValueError("at least one node required")
    if not all(math.isfinite(v) for v in x):
        raise ValueError(f"nodes must be finite, got {x}")
    if max(map(abs, x)) >= 2.0 ** 1023:
        raise ValueError(f"nodes must be below 2^1023 in magnitude, got {x}")
    return x


def opitz_table(nodes, upper, ts):
    """The last column of exp(ln(t) J) at every t of `ts` in (0, 1], an
    array of shape (len(ts), n + 1), for J = diag(x_0..x_n) plus the
    superdiagonal u_0..u_{n-1} = `upper`: entry k is
    u_k..u_{n-1} [x_k..x_n] t^x.

    Scaling and squaring (Higham, SIMAX 2005), as McCurdy, Ng & Parlett
    (Math. Comp. 1984) apply it to divided differences of exp: h = ln(t)
    is halved s times, until |h| sigma <= TAYLOR_THETA, the Taylor
    polynomial of exp(h J) is summed by Estrin's scheme, and the matrix
    is squared s times.  Entry (i, j) of exp(h J) has the sign of
    (-1)^{j-i} u_i..u_{j-1} for h < 0, so every sum a squaring forms has
    terms of one sign and nothing cancels; the diagonal is set to
    exp(2^-k ln(t) x_i) after each squaring instead of being squared.
    Repeated and nearly coincident nodes need no special case.

    Each parameter has its own s and no operation mixes parameters, so a
    batch gives the bits that a batch of one gives."""
    x = _checked_nodes(nodes)
    t = np.asarray(ts, dtype=float)
    if t.size and not (t.min() > 0 and t.max() <= 1):
        raise ValueError("t must be in (0, 1]")
    xs, sigma, terms = _taylor_terms(x, tuple(float(u) for u in upper))
    out = np.empty((t.size, xs.size))
    for lo in range(0, t.size, BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = _exp_last_column(
            xs, sigma, terms, t[lo:lo + BLOCK_ROWS])
    return out


def opitz_matrix(nodes, t):
    """The whole matrix exp(ln(t) J) at one t in (0, 1), for J =
    diag(x_0..x_n) plus a superdiagonal of ones, scaled so that no entry
    leaves the float range, and the same for the nodes negated and
    reversed: an array of shape (2, n + 1, n + 1) holding, for the nodes
    x and for x'_k = -x_{n-k}, the matrix Z with

        Z_ij = |ln t|^{i-j} t^{-x_j} |[x_i..x_j] t^x|      (i <= j),

    ones on the diagonal and zeros below it.  The entry is the divided
    difference of e^{y - y_j} at the nodes y_k = ln(t) x_k, divided by
    (ln t)^{j-i} with its sign, so for nonincreasing nodes it lies in
    (0, 1/(j-i)!]: t^{x_j} and the powers of ln t are taken out, and the
    caller puts them back where they cancel or stay in range.  Z does not
    change when every node is shifted by one constant, and the second
    matrix is the first's inverse exp(-ln(t) J), so scaled, reversed and
    transposed.

    The kernel is `opitz_table`'s, for one parameter and every column.
    With h = ln(t) halved s times until |h| sigma <= theta (2 where the
    terms suffice, TAYLOR_THETA otherwise: `_opitz_setup`), the Taylor
    polynomial of the scaled matrix is one product of the powers
    of y = h sigma with `_taylor_terms` of diag(x) / sigma plus the
    superdiagonal 1, entry (i, j) taking y^k from term k + j - i (the
    scaling moves the power y^{j-i} of each entry into the terms); the
    negated nodes take the powers of -y with the terms reversed and
    transposed.  Each of the s squarings of exp(h J) is, on the scaled
    matrices,

        Z <- 2^{i-j} Z (E o Z),      E_mj = exp(h (x_m - x_j)),  m <= j,

    whose diagonal stays 1: every sum has terms of one sign, as in
    `opitz_table`, and E <= 1 for nonincreasing nodes."""
    if not 0 < t < 1:
        raise ValueError("t must be in (0, 1)")
    sigma, theta, powers, taylor, columns, gaps, halves = _opitz_setup(
        _checked_nodes(nodes))
    size = len(halves)
    lt = math.log(t)
    s = max(math.frexp(-lt * sigma / theta)[1], 0)
    h = math.ldexp(lt, -s)
    z = ((h * sigma) ** powers @ taylor).reshape(2, size, size)
    z *= np.exp(h * columns)
    z.reshape(2, -1)[:, ::size + 1] = 1.0
    # the diagonal stays 1: E and the halving factors are 1 there
    for e in np.exp(np.ldexp(h, np.arange(s))[:, None, None, None] * gaps):
        z = (z @ (e * z)) * halves
    return z


@functools.lru_cache(maxsize=32)
def _opitz_setup(x):
    """What `opitz_matrix` needs of its nodes alone: sigma; the Taylor
    radius theta, 2 where the terms suffice and TAYLOR_THETA otherwise;
    the exponents k and the Taylor table, whose row k holds the
    coefficient of y^k of both scaled matrices side by side (entry (i, j)
    of the first is term k + j - i of `_taylor_terms` of diag(x) / sigma
    plus the superdiagonal 1, zero past the last term and below the
    diagonal; entry (i, j) of the second is (-1)^k times entry
    (n - j, n - i) of the first); the column exponents of both (-x, and
    the nodes reversed); the node gaps x_m - x_j of both over m <= j; and
    the halving factors 2^{i-j} (`_opitz_layout`).  Cached for the 32
    node tuples used last, read-only: a pyramid and the Schur route of
    `oracle` use about 3n ladders of a space of order n."""
    size = len(x)
    sigma = 2.0 ** math.ceil(math.log2(max(1.0, *map(abs, x))))
    # uncached: the entry below keeps what it needs of the terms, and
    # `opitz_table`'s terms stay in their cache
    xs, _, terms = _taylor_terms.__wrapped__(x, (sigma,) * (size - 1))
    index, order, upper, halves = _opitz_layout(size, len(terms))
    first = np.concatenate((terms.ravel(), np.zeros(size * size)))[index]
    gaps = (xs[:, None] - xs) * upper
    # entry (i, j) keeps K = count - (j - i) terms past its first, and
    # leaves out at most e^{2 theta} theta^K / K! of itself: below 2^-53
    # for theta = 2 once K >= 26
    theta = 2.0 if len(terms) - size >= 25 else TAYLOR_THETA
    out = (sigma, theta, order,
           np.concatenate((first, first[:, ::-1, ::-1].transpose(0, 2, 1)
                           * (-1.0) ** order[:, None, None]),
                          axis=1).reshape(len(terms), -1),
           np.stack((-xs, xs[::-1]))[:, None, :],
           np.stack((gaps, gaps[::-1, ::-1].T)), halves)
    for array in out[3:6]:
        array.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _opitz_layout(size, count):
    """What `_opitz_setup` needs of the matrix size and the number of
    Taylor terms alone: the flat index of term k + j - i at entry (i, j)
    in the terms followed by one zero term (every term is upper
    triangular, so the wrapped indices below the diagonal read zeros,
    and index `count` reads the zero term), the exponents k, the mask of
    the upper triangle, and the halving factors 2^{i-j}.  Read-only.
    Built inside `_opitz_setup` instead, they added about 45 us to each
    of its misses, 2% of real-sample's op time."""
    offsets = np.arange(size)
    shift = offsets - offsets[:, None]
    out = (np.minimum(np.arange(count)[:, None, None] + shift, count)
           * size * size + offsets[:, None] * size + offsets,
           np.arange(count), shift >= 0, np.ldexp(1.0, -shift))
    for array in out:
        array.flags.writeable = False
    return out


def _exp_last_column(x, sigma, terms, t):
    size = x.size
    lt = np.log(t)
    s = np.maximum(np.frexp(lt * (-sigma / TAYLOR_THETA))[1], 0)
    h = np.ldexp(lt * sigma, -s)[:, None, None, None]
    # Estrin: p_0 + p_1 h, p_2 + p_3 h, ..; then pairs of those with h^2
    poly = terms
    while poly.shape[-3] > 1:
        poly = poly[..., 0::2, :, :] + poly[..., 1::2, :, :] * h
        h = h * h
    f = poly[:, 0]
    # every parameter's last squaring is the loop's last; k squarings
    # remain after the one at step k
    top, first = int(s.max()), int(s.min())
    diag = np.exp(np.ldexp(lt[:, None], -np.arange(top))[:, :, None] * x)
    for k in range(top - 1, -1, -1):
        g = f @ f
        g.reshape(t.size, -1)[:, ::size + 1] = diag[:, k]
        f = g if k < first else np.where((s > k)[:, None, None], g, f)
    return f[:, :, -1]
