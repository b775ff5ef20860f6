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

import numpy as np

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


def gaussian_basis(x, xi):
    """exp(-xi * x^2), the interpolation kernel."""
    return np.exp(-xi * np.square(x))


def build_gram(sample_df, xi):
    """Kernel matrix over sample locations; rejects exact duplicates."""
    xs = np.asarray(sample_df, dtype=float)
    with np.errstate(over="ignore"):  # see RbfSurrogate.evaluate
        diff = xs[:, None] - xs[None, :]
        if (np.abs(diff) + np.eye(len(xs)) == 0).any():
            raise InfillViolationError("duplicate sample locations")
        return gaussian_basis(diff, xi)


def fit_weights(gram, S):
    """Solve the interpolation system; fails loudly when near-singular."""
    gram = np.asarray(gram, dtype=float)
    cond = np.linalg.cond(gram)
    if cond > COND_LIMIT:
        raise IllConditioningError(
            f"gram condition number {cond:.3e} exceeds {COND_LIMIT:.0e}; "
            "infill distance too small for this kernel width"
        )
    return np.linalg.solve(gram.T, np.asarray(S, dtype=float))


def packed_condition(xi, d_min, m) -> float:
    """Condition number of the Gram matrix of m samples spaced d_min apart,
    the tightest packing the infill rule admits."""
    return float(np.linalg.cond(build_gram(float(d_min) * np.arange(m), xi)))


class RbfSurrogate:
    """Exact RBF interpolant of the frequency-responsive load droop.

    `aie` is the signal chain's config section: the kernel width rbf_xi,
    1/Hz^2, the infill distance rbf_d_min, Hz, and the sample cap
    rbf_max_samples. Samples are admitted only when at least d_min away
    from every stored location, which keeps the kernel matrix well
    conditioned. Samples are stored in arrival order. When full, the
    oldest sample that is not a boundary point (min or max location) is
    evicted so the covered span is preserved, which takes room for three
    samples.
    """

    def __init__(self, aie) -> None:
        self.xi, self.d_min = aie.rbf_xi, aie.rbf_d_min
        self.max_samples = aie.rbf_max_samples
        self.sample_df, self.sample_dP = [], []
        self.weights = None
        # sample_df as an array, and in ascending order for infill_decide
        self.locations, self.by_location = np.empty(0), []
        # on Python floats, so an overflow reads 0.0 and numpy never warns
        xi, d_min = float(self.xi), float(self.d_min)
        if math.exp(-xi * d_min * d_min) == 0.0:
            raise ValueError(
                f"rbf_xi {self.xi} with rbf_d_min {self.d_min}: samples "
                "spaced rbf_d_min apart have no kernel overlap, so the "
                "surrogate corrects nothing between them"
            )
        # a probe, not a proof: fit_weights still checks every refit
        m = min(self.max_samples, PROBE_MAX_SAMPLES)
        cond = packed_condition(self.xi, self.d_min, m)
        if not cond <= COND_LIMIT:
            raise ValueError(
                f"rbf_xi {self.xi} with rbf_d_min {self.d_min}: {m} samples "
                f"spaced rbf_d_min apart give a gram condition number of "
                f"{cond:.3e}, above {COND_LIMIT:.0e}"
            )
        # d^2 and xi * d^2 are finite for |d| <= radius, with room for
        # rounding: a df within reach, radius less the largest |sample|,
        # overflows nothing in evaluate
        self.radius = math.sqrt(sys.float_info.max / max(xi, 1.0)) / 2
        self.reach = self.radius

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
        xs = self.by_location
        insort(xs, df)
        self.locations = np.array(self.sample_df)
        self.reach = self.radius - max(-xs[0], xs[-1])
        self.refit()

    def _evict(self) -> None:
        lo = int(np.argmin(self.locations))
        hi = int(np.argmax(self.locations))
        victim = next(i for i in range(self.m) if i not in (lo, hi))
        self.by_location.remove(self.sample_df[victim])
        for seq in (self.sample_df, self.sample_dP):
            seq.pop(victim)

    def refit(self) -> None:
        gram = build_gram(self.locations, self.xi)
        self.weights = fit_weights(gram, self.sample_dP)

    def evaluate(self, df):
        """Interpolated frequency-responsive correction at df (0 when empty)."""
        if not self.sample_df:
            return 0.0
        if abs(df) <= self.reach:  # nothing overflows (see __init__)
            return float(gaussian_basis(df - self.locations, self.xi)
                         @ self.weights)
        # a distance or its square past a float's range is a kernel of
        # exactly 0, its limit: a diverging plant's df is no warning here
        with np.errstate(over="ignore"):
            basis = gaussian_basis(df - self.locations, self.xi)
        return float(basis @ self.weights)
