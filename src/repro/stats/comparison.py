"""Two-sample distribution comparison for simulator cross-validation.

The repository repeatedly asks "do these two samplers draw from the same
law?" (batch vs single engines, serialised vs parallel BIPS, Bernoulli
ρ=1 vs fixed b=2...).  This module centralises that check: the
two-sample Kolmogorov–Smirnov statistic with its asymptotic p-value,
plus an exact-in-spirit permutation test on the mean difference for
small samples where the KS asymptotics are shaky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import generator_from

__all__ = ["ComparisonResult", "ks_compare", "permutation_mean_test", "same_distribution"]


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-sample comparison."""

    statistic: float
    p_value: float
    n_a: int
    n_b: int
    method: str

    def consistent(self, alpha: float = 0.01) -> bool:
        """True iff the samples are *not* distinguishable at level ``alpha``."""
        return self.p_value >= alpha


def ks_compare(a, b) -> ComparisonResult:
    """Two-sample KS test (scipy's exact/asymp auto selection)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    from scipy.stats import ks_2samp

    res = ks_2samp(a, b)
    return ComparisonResult(
        statistic=float(res.statistic),
        p_value=float(res.pvalue),
        n_a=int(a.size),
        n_b=int(b.size),
        method="ks-2samp",
    )


def permutation_mean_test(
    a,
    b,
    *,
    n_permutations: int = 2000,
    rng: np.random.Generator | int | None = None,
) -> ComparisonResult:
    """Permutation test of ``mean(a) == mean(b)`` (two-sided).

    Resamples group labels; the p-value is the fraction of permuted
    mean differences at least as extreme as the observed one (with the
    +1 correction so the p-value is never 0).
    """
    gen = generator_from(rng)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    observed = abs(a.mean() - b.mean())
    pooled = np.concatenate([a, b])
    count = 0
    for _ in range(n_permutations):
        perm = gen.permutation(pooled)
        diff = abs(perm[: a.size].mean() - perm[a.size :].mean())
        if diff >= observed - 1e-15:
            count += 1
    p = (count + 1) / (n_permutations + 1)
    return ComparisonResult(
        statistic=float(observed),
        p_value=float(p),
        n_a=int(a.size),
        n_b=int(b.size),
        method="permutation-mean",
    )


def same_distribution(
    a,
    b,
    *,
    alpha: float = 0.01,
    rng: np.random.Generator | int | None = None,
) -> bool:
    """Convenience: both KS and permutation tests fail to distinguish.

    This is the acceptance predicate used by the engine-equivalence
    tests; requiring both tests makes a silent distribution drift
    harder to slip through.
    """
    return (
        ks_compare(a, b).consistent(alpha)
        and permutation_mean_test(a, b, rng=rng).consistent(alpha)
    )
