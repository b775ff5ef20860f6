"""Area control error, per-agent injection-error shares, and the RBF surrogate.

The injection error refines the classic tie-line-plus-bias error with the
measured gap between commanded and delivered generator power, which removes
the governor-turbine nonlinearity from the signal. Frequency-responsive
loads add a second bias; their droop behavior is learned online by an exact
RBF interpolant over sparsely infilled (frequency, response) samples.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, insort
from functools import lru_cache
from math import fsum
from operator import mul

COND_LIMIT = 1e12  # largest Gram condition number a fit accepts
# The load-time probe packs at most this many samples. By eigenvalue
# interlacing a larger packing is conditioned no better, so a probe that
# fails on fewer samples than rbf_max_samples still rightly rejects.
PROBE_MAX_SAMPLES = 128


class InfillViolationError(ValueError):
    """A sample the surrogate refuses: too close to a stored one, or not
    finite."""


class IllConditioningError(RuntimeError):
    """Gram matrix condition number too large: infill spacing too small."""


def compute_ace(dPtie, B, df):
    """Classic area control error: tie-line deviation plus biased frequency."""
    return dPtie + B * df


def aie_shares(sigma, p_tie, d_prime, df, du_cg, pm_cg, correction) -> list:
    """Each agent's share of the area injection error.

    share_i = sigma_i*(p_tie + D'*df) + sigma_i*du_cg - sigma_i*pm_cg
    + sigma_i*correction: the tie-line-plus-damping error, the gap between
    the generators' summed governor command du_cg and mechanical power
    pm_cg, and the surrogate's learned responsive-load correction, split by
    the participation factors sigma (a list of floats).
    """
    error = p_tie + d_prime * df
    return [s * error + s * du_cg - s * pm_cg + s * correction
            for s in sigma]


def gaussian_basis(x, xi) -> float:
    """exp(-xi * x^2), the interpolation kernel, on Python floats: a
    square past a float's range is a kernel of exactly 0, never an
    overflow."""
    return math.exp(-xi * (x * x))


def build_gram(sample_df, xi) -> list:
    """Kernel matrix over sample locations, as rows of floats; rejects
    exact duplicates."""
    xs = [float(x) for x in sample_df]
    if len(set(xs)) < len(xs):
        raise InfillViolationError("duplicate sample locations")
    return [[gaussian_basis(a - b, xi) for b in xs] for a in xs]


def cholesky(gram) -> list | None:
    """The rows of the factor L of a Gram matrix G = L L^T; None at the
    first pivot that is not positive, where G is not positive definite in
    floating point. Every dot product is a `math.fsum` of the rounded
    products, the same on any platform."""
    low = []
    for i, g in enumerate(gram):
        row = []
        for j, lj in enumerate(low):
            row.append((float(g[j]) - fsum(map(mul, row, lj))) / lj[j])
        pivot = float(g[i]) - fsum(map(mul, row, row))
        if not pivot > 0.0:
            return None
        row.append(math.sqrt(pivot))
        low.append(row)
    return low


def condition_bound(low, gram) -> float:
    """An upper bound on G's 2-norm condition number, from its rows and
    the rows of its factor L: Gershgorin's bound on its largest
    eigenvalue, the largest absolute row sum, times trace(G^-1) =
    ||L^-1||_F^2 >= 1/lambda_min. Row i of L^-1 is
    x_ij = -(sum over j <= k < i of l_ik x_kj) / l_ii, with column j
    of L^-1 holding x_kj for k = j..i-1."""
    cols, norms = [], []
    for i, row in enumerate(low):
        d = row[i]
        inv = [-fsum(map(mul, row[j:i], col)) / d
               for j, col in enumerate(cols)]
        inv.append(1.0 / d)
        for col, x in zip(cols, inv):
            col.append(x)
        cols.append([inv[-1]])
        norms.append(fsum(map(mul, inv, inv)))
    return max(fsum(map(abs, g)) for g in gram) * fsum(norms)


def solve(low, b) -> list:
    """x with G x = b, given the rows of G's factor L: L z = b forward,
    then L^T x = z backward."""
    z = []
    for row, v in zip(low, b):
        z.append((float(v) - fsum(map(mul, row, z))) / row[-1])
    x = []  # x_n-1 first
    for i in range(len(z) - 1, -1, -1):
        below = [row[i] for row in low[:i:-1]]
        x.append((z[i] - fsum(map(mul, below, x))) / low[i][i])
    return x[::-1]


def condition_number(gram) -> float:
    """The 2-norm condition number lambda_max / lambda_min of a symmetric
    matrix given as rows, on Python floats; inf unless every eigenvalue is
    positive. Householder reduction to tridiagonal form, then bisection on
    Sturm counts for the two extreme eigenvalues."""
    a = [[float(v) for v in row] for row in gram]
    n = len(a)
    diag, off = [], []
    for k in range(n - 2):
        x = [a[i][k] for i in range(k + 1, n)]
        norm = math.sqrt(fsum(map(mul, x, x)))
        diag.append(a[k][k])
        if norm == 0.0:  # the column is already reduced
            off.append(0.0)
            continue
        alpha = -math.copysign(norm, x[0])
        off.append(alpha)
        x[0] -= alpha
        scale = math.sqrt(fsum(map(mul, x, x)))
        v = [t / scale for t in x]
        # A <- H A H with H = I - 2 v v^T, on the trailing block
        block = [a[i][k + 1:] for i in range(k + 1, n)]
        p = [fsum(map(mul, r, v)) for r in block]
        kv = fsum(map(mul, v, p))
        q = [pi - kv * vi for pi, vi in zip(p, v)]
        for i, (vi, qi) in enumerate(zip(v, q)):
            r = a[k + 1 + i]
            r[k + 1:] = [rj - 2.0 * (vi * qj + qi * vj)
                         for rj, vj, qj in zip(r[k + 1:], v, q)]
    if n >= 2:
        diag.append(a[n - 2][n - 2])
        off.append(a[n - 1][n - 2])
    if n:
        diag.append(a[n - 1][n - 1])
    off2 = [e * e for e in off]

    def below(x) -> int:
        """How many eigenvalues lie below x (Sturm count)."""
        count, q = 0, 1.0
        for i, d in enumerate(diag):
            q = d - x - (off2[i - 1] / q if i else 0.0)
            if q == 0.0:
                q = -sys.float_info.min
            count += q < 0.0
        return count

    if not n or below(0.0):
        return math.inf
    bounds = [abs(e) for e in off] + [0.0]
    hi = max(d + b + (bounds[i - 1] if i else 0.0)
             for i, (d, b) in enumerate(zip(diag, bounds)))

    def eigenvalue(k: int) -> float:
        """Eigenvalue k, counting up from 0, between 0 and hi."""
        lo, up = 0.0, hi
        while True:
            mid = 0.5 * (lo + up)
            if not lo < mid < up:
                return up
            if below(mid) > k:
                up = mid
            else:
                lo = mid

    smallest = eigenvalue(0)
    return eigenvalue(n - 1) / smallest if smallest > 0.0 else math.inf


def fit_weights(gram, S) -> list:
    """Solve the interpolation system gram w = S by Cholesky; fails loudly
    when near-singular. The fit is accepted when its `condition_bound` is
    within COND_LIMIT, and else on the condition number itself: as the
    bound is never below the condition number, the verdict is the
    condition number's."""
    low = cholesky(gram)
    cond = math.inf
    if low is not None:
        cond = condition_bound(low, gram)
        if cond > COND_LIMIT:
            cond = condition_number(gram)
        if cond <= COND_LIMIT:
            return solve(low, S)
    raise IllConditioningError(
        f"gram condition number {cond:.3e} exceeds {COND_LIMIT:.0e}; "
        "infill distance too small for this kernel width"
    )


@lru_cache(maxsize=64)
def packed_condition(xi, d_min, m) -> float:
    """Condition number of the Gram matrix of m samples spaced d_min apart,
    the tightest packing the infill rule admits. A pure function of its
    three numbers, so each setting is factored once per process."""
    return condition_number(build_gram([d_min * k for k in range(m)], xi))


class RbfSurrogate:
    """Exact RBF interpolant of the frequency-responsive load droop.

    `aie` is the signal chain's config section: the kernel width rbf_xi,
    1/Hz^2, the infill distance rbf_d_min, Hz, and the sample cap
    rbf_max_samples. Samples are admitted only when at least d_min away
    from every stored location, which keeps the kernel matrix well
    conditioned. Samples are stored in arrival order, and each refit
    factors the Gram matrix of the samples afresh. When full, the oldest
    sample that is not a boundary point (min or max location) is evicted
    so the covered span is preserved, which takes room for three samples.
    """

    def __init__(self, aie) -> None:
        self.xi, self.d_min = float(aie.rbf_xi), float(aie.rbf_d_min)
        self.max_samples = aie.rbf_max_samples
        self.sample_df, self.sample_dP = [], []
        self.weights = None
        # sample_df in ascending order, for infill_decide
        self.by_location = []
        if gaussian_basis(self.d_min, self.xi) == 0.0:
            raise ValueError(
                f"rbf_xi {aie.rbf_xi} with rbf_d_min {aie.rbf_d_min}: "
                "samples spaced rbf_d_min apart have no kernel overlap, so "
                "the surrogate corrects nothing between them"
            )
        # a probe, not a proof: fit_weights still checks every refit
        m = min(self.max_samples, PROBE_MAX_SAMPLES)
        cond = packed_condition(self.xi, self.d_min, m)
        if not cond <= COND_LIMIT:
            raise ValueError(
                f"rbf_xi {aie.rbf_xi} with rbf_d_min {aie.rbf_d_min}: {m} "
                f"samples spaced rbf_d_min apart give a gram condition "
                f"number of {cond:.3e}, above {COND_LIMIT:.0e}"
            )

    @property
    def m(self) -> int:
        return len(self.sample_df)

    def infill_decide(self, df) -> bool:
        """Whether df lies at least d_min from every stored location. As
        float subtraction is monotone, the nearest are df's neighbours in
        the sorted locations, whose verdict is the full scan's."""
        xs, d_min = self.by_location, self.d_min
        if not xs:
            return True
        i = bisect_left(xs, df)
        below, above = xs[i - 1 if i else 0], xs[i if i < len(xs) else -1]
        return abs(df - below) >= d_min and abs(df - above) >= d_min

    def add_sample(self, df, dP) -> None:
        if not (math.isfinite(df) and math.isfinite(dP)):
            raise InfillViolationError(f"sample ({df}, {dP}) is not finite")
        if not self.infill_decide(df):
            raise InfillViolationError(
                f"sample at {df} closer than {self.d_min} to an existing one"
            )
        if self.m >= self.max_samples:
            self._evict()
        df = float(df)
        self.sample_df.append(df)
        self.sample_dP.append(float(dP))
        insort(self.by_location, df)
        self.weights = fit_weights(build_gram(self.sample_df, self.xi),
                                   self.sample_dP)

    def _evict(self) -> None:
        ends = self.by_location[0], self.by_location[-1]
        victim = next(i for i, x in enumerate(self.sample_df)
                      if x not in ends)
        self.by_location.remove(self.sample_df.pop(victim))
        self.sample_dP.pop(victim)

    def evaluate(self, df):
        """Interpolated frequency-responsive correction at df (0 when
        empty): the weighted kernels summed in sample order."""
        xi, total = self.xi, 0.0
        # gaussian_basis, inline: a call per kernel makes a 24-sample
        # evaluation about a quarter slower, and it runs every interval
        for x, w in zip(self.sample_df, self.weights or ()):
            d = df - x
            total += w * math.exp(-xi * (d * d))
        return total
