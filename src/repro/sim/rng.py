"""Deterministic random-number stream management.

Every stochastic component of the library takes a :class:`numpy.random.Generator`
so that experiments are exactly reproducible and independent components use
independent streams (via :class:`numpy.random.SeedSequence` spawning).
:class:`WeightedSampler` is the one weighted (categorical) draw every
workload generator uses.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError

__all__ = ["WeightedSampler", "rng_from_seed", "spawn_rngs"]

SeedLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def rng_from_seed(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer, a ``SeedSequence`` or an
    existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Create ``n`` statistically independent generators from one seed.

    >>> a, b = spawn_rngs(42, 2)
    >>> bool((a.integers(0, 100, 50) == b.integers(0, 100, 50)).all())
    False
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's own bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


class WeightedSampler:
    """Exact replacement for ``rng.choice(len(p), size=k, p=p)``.

    Contract: ``WeightedSampler(p).sample(rng, k)`` returns the same int64
    array as ``rng.choice(len(p), size=k, p=p)`` and consumes the same
    draws, so the generator is left in the same state.  ``rng.choice``
    draws ``u = rng.random(k)`` and returns ``searchsorted(cdf, u,
    side="right")`` over ``cdf = p.cumsum(); cdf /= cdf[-1]``; this class
    computes that same index without the binary search's random walk over
    the whole CDF.  A guide table of ``K = len(p)`` buckets (Chen & Asau's
    index method) holds ``searchsorted(cdf, j / K, side="right")``; a draw
    starts at its bucket's entry and steps forward or back in vectorised
    rounds until ``cdf[idx-1] <= u < cdf[idx]``.  That condition pins the
    index uniquely because ``cdf`` is non-decreasing, so the result is
    bit-equal whatever the start.  The few draws still unsettled after
    ``_ROUNDS`` rounds (long runs of tiny weights in one bucket) take
    ``searchsorted`` itself.

    ``p`` must be finite, non-negative and have a positive total, else
    :class:`~repro.errors.ConfigError` names the fault.  A vector that is
    not clearly a probability vector (total further than ``_SUM_TOL``
    from 1) is handed to ``rng.choice`` unchanged, so NumPy's own
    tolerance still decides at the edge.

    >>> p = np.array([0.5, 0.0, 0.25, 0.25])
    >>> a, b = np.random.default_rng(3), np.random.default_rng(3)
    >>> bool((WeightedSampler(p).sample(a, 1000)
    ...       == b.choice(4, size=1000, p=p)).all())
    True
    >>> bool(a.random() == b.random())
    True
    """

    __slots__ = ("p", "_cdf", "_prev", "_guide", "_exact")

    #: Draws settled per pass; bounds the temporaries to a few 512 KiB
    #: arrays however many draws are asked for.
    _BLOCK = 1 << 16
    #: Step rounds before the remaining draws fall back to searchsorted.
    _ROUNDS = 8
    #: Totals this close to 1 are certainly inside ``rng.choice``'s
    #: tolerance (sqrt(eps) ~ 1.5e-8), whatever its summation order.
    _SUM_TOL = 1e-9

    def __init__(self, p: npt.ArrayLike) -> None:
        p = _checked_weights(p)
        self.p = p
        self._exact = abs(float(p.sum()) - 1.0) <= self._SUM_TOL
        if not self._exact:
            return
        n = p.shape[0]
        # edges[i + 1] = cdf[i], edges[0] = -inf: ``_prev`` is cdf[idx-1]
        # with a sentinel below every draw, so neither view needs a bounds
        # check or an index offset.
        edges = np.empty(n + 1)
        edges[0] = -np.inf
        cdf = edges[1:]
        np.cumsum(p, out=cdf)
        cdf /= cdf[-1]
        self._cdf = cdf
        self._prev = edges[:-1]
        self._guide = cdf.searchsorted(np.arange(n) / n, side="right")

    @classmethod
    def from_weights(cls, weights: npt.ArrayLike) -> "WeightedSampler":
        """A sampler over ``weights / weights.sum()`` (checked first)."""
        w = _checked_weights(weights)
        return cls(w / w.sum())

    def sample(self, rng: np.random.Generator, size: int) -> npt.NDArray[np.int64]:
        """``size`` i.i.d. category indices (int64), as ``rng.choice``."""
        if not self._exact:
            return rng.choice(self.p.shape[0], size=size, p=self.p)
        u = rng.random(size)
        out = np.empty(u.shape[0], dtype=np.int64)
        k = self._guide.shape[0]
        for lo in range(0, u.shape[0], self._BLOCK):
            ub = u[lo:lo + self._BLOCK]
            # u <= 1 - 2**-53 rounds u * k below k, so the bucket is in
            # range without a clamp (it may round up onto the next
            # bucket's edge; _settle steps back from there).
            j = (ub * k).astype(np.intp)
            out[lo:lo + ub.shape[0]] = self._settle(self._guide.take(j), ub)
        return out

    def _settle(
        self, idx: npt.NDArray[np.intp], u: npt.NDArray[np.float64]
    ) -> npt.NDArray[np.intp]:
        """Move each ``idx`` to the unique ``prev[idx] <= u < cdf[idx]``."""
        for edge, step, stuck in (
            (self._cdf, 1, np.less_equal),   # cdf[idx] <= u: too far left
            (self._prev, -1, np.greater),    # cdf[idx-1] > u: too far right
        ):
            act = np.flatnonzero(stuck(edge.take(idx), u))
            for _ in range(self._ROUNDS):
                if not act.size:
                    break
                idx[act] += step
                act = act[stuck(edge.take(idx[act]), u[act])]
            if act.size:
                idx[act] = self._cdf.searchsorted(u[act], side="right")
        return idx


def _checked_weights(weights: npt.ArrayLike) -> npt.NDArray[np.float64]:
    """``weights`` as a 1-D float64 array; ConfigError names any fault."""
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ConfigError(f"weights must be 1-D, got shape {w.shape}")
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ConfigError(
            f"weights must be finite: weight {bad[0]} is {w[bad[0]]}"
        )
    bad = np.flatnonzero(w < 0)
    if bad.size:
        raise ConfigError(
            f"weights must be non-negative: weight {bad[0]} is {w[bad[0]]}"
        )
    with np.errstate(over="ignore"):
        total = w.sum()
    if not total > 0:
        raise ConfigError(
            f"weights must have a positive total, got {total} over {w.size}"
        )
    if not np.isfinite(total):
        raise ConfigError(f"weights overflow: their total is {total}")
    return w
