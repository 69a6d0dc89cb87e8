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
their own residue form.

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
    x = tuple(float(v) for v in nodes)
    if not x:
        raise ValueError("at least one node required")
    if not all(math.isfinite(v) for v in x):
        raise ValueError(f"nodes must be finite, got {x}")
    # sigma, the power of two at or above every |x_i|, must be a float
    if max(map(abs, x)) >= 2.0 ** 1023:
        raise ValueError(f"nodes must be below 2^1023 in magnitude, got {x}")
    t = np.asarray(ts, dtype=float)
    if t.size and not (t.min() > 0 and t.max() <= 1):
        raise ValueError("t must be in (0, 1]")
    xs, sigma, terms = _taylor_terms(x, tuple(float(u) for u in upper))
    out = np.empty((t.size, xs.size))
    for lo in range(0, t.size, BLOCK_ROWS):
        out[lo:lo + BLOCK_ROWS] = _exp_last_column(
            xs, sigma, terms, t[lo:lo + BLOCK_ROWS])
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
