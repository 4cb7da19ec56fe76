"""The paper's theoretical bounds, as executable formulas.

Implemented results (all message counts are expectations):

* **Lemma 3** — per-site upper bound ``E[Y_i] <= 2s + 2s(H_{d_i} − H_s)``.
* **Lemma 4** — total upper bound ``E[Y] <= 2ks + 2ks(H_d − H_s)``
  ``≈ 2ks(1 + ln(d/s))``.
* **Observation 1** — the tighter per-site-aware bound
  ``E[Y] <= 2ks + 2s · Σ_i (H_{d_i} − H_s)``.
* **Lemma 9** — lower bound ``E[Y] >= (ks/2)(H_d − H_s + 1)``
  ``≈ (ks/2) ln(de/s)``, giving the factor-4 optimality claim.
* **Lemma 10** — sliding-window expected per-site space ``H_{M_i}``.

The theory-validation benches ratio these against measured counts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .harmonic import harmonic, harmonic_diff

__all__ = [
    "upper_bound_per_site",
    "upper_bound_total",
    "upper_bound_observation1",
    "lower_bound_total",
    "optimality_gap",
    "sliding_window_space",
]


def _check(k: int | None, s: int, d: int) -> None:
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")


def upper_bound_per_site(s: int, d_i: int) -> float:
    """Lemma 3: expected messages (sent + received) at one site.

    Args:
        s: Sample size.
        d_i: Distinct elements observed at the site.

    Returns:
        ``2s + 2s(H_{d_i} − H_s)`` — when ``d_i <= s`` every new distinct
        element may be reported, giving ``2·d_i``.
    """
    _check(None, s, d_i)
    if d_i <= s:
        return 2.0 * d_i
    return 2.0 * s + 2.0 * s * harmonic_diff(d_i, s)


def upper_bound_total(k: int, s: int, d: int) -> float:
    """Lemma 4: expected total messages, ``2ks + 2ks(H_d − H_s)``.

    Args:
        k: Number of sites.
        s: Sample size.
        d: Total distinct elements (each site bounded by d).
    """
    _check(k, s, d)
    return k * upper_bound_per_site(s, d)


def upper_bound_observation1(k: int, s: int, d_per_site: Sequence[int]) -> float:
    """Observation 1: the per-site-aware upper bound.

    Args:
        k: Number of sites (must equal ``len(d_per_site)``).
        s: Sample size.
        d_per_site: Distinct elements observed at each site.

    Returns:
        ``Σ_i [2s + 2s(H_{d_i} − H_s)]`` — much tighter than Lemma 4 when
        the stream is partitioned (d_i ≪ d) rather than flooded (d_i = d).
    """
    if len(d_per_site) != k:
        raise ValueError(
            f"expected {k} per-site counts, got {len(d_per_site)}"
        )
    return sum(upper_bound_per_site(s, d_i) for d_i in d_per_site)


def lower_bound_total(k: int, s: int, d: int) -> float:
    """Lemma 9: expected messages any algorithm must send on the
    adversarial input, ``(ks/2)(H_d − H_s + 1)``.

    Args:
        k: Number of sites.
        s: Sample size.
        d: Number of adversary rounds (distinct elements).
    """
    _check(k, s, d)
    if d <= s:
        # Rounds 1..d each force >= k/4 messages (Lemma 6 regime).
        return k * d / 4.0
    return 0.5 * k * s * (harmonic_diff(d, s) + 1.0)


def optimality_gap(k: int, s: int, d: int) -> float:
    """Upper bound / lower bound — the paper claims this is <= 4.

    Args:
        k: Number of sites.
        s: Sample size.
        d: Distinct elements.

    Returns:
        ``upper_bound_total / lower_bound_total`` (→ 4 as d/s → ∞).
    """
    lo = lower_bound_total(k, s, d)
    if lo == 0.0:
        return math.inf
    return upper_bound_total(k, s, d) / lo


def sliding_window_space(m_i: int) -> float:
    """Lemma 10: expected per-site candidate-set size, ``H_{M_i}``.

    Args:
        m_i: Number of live distinct elements at the site.
    """
    if m_i < 0:
        raise ValueError(f"m_i must be >= 0, got {m_i}")
    return harmonic(m_i)
