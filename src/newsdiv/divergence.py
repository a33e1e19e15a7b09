"""KL and Jensen-Shannon divergences between aligned discrete distributions.

All logarithms are base 2, which bounds the Jensen-Shannon divergence by 1.
``js`` returns the square root of that bounded value: unlike KL it is a
proper distance (identity of indiscernibles, symmetry, triangle inequality).
Sums run over lexicographically sorted keys and accumulate with ``math.fsum``
so results are exact to the last bit and independent of caller ordering.
"""
from __future__ import annotations

import math

from .distrib import DiscreteDistribution, _check_alpha, _smoothed_masses
from .errors import UnsmoothedZeroError

KINDS = ("kl", "js")


def _check_domains(p: DiscreteDistribution, q: DiscreteDistribution) -> None:
    if p.masses.keys() != q.masses.keys():
        raise ValueError("distributions must share one domain; align them with smooth_pair")


def _aligned(
    p: DiscreteDistribution, q: DiscreteDistribution, alpha: float | None
) -> tuple[list[str], list[float], list[float]]:
    """The sorted domain and the masses of p and q over it.  Without
    ``alpha`` the two must share one domain; with it they are smoothed on
    their union domain exactly as ``smooth_pair`` does, without building the
    smoothed distributions."""
    if alpha is None:
        _check_domains(p, q)
        domain = sorted(p.masses)
        return domain, [p.masses[key] for key in domain], [q.masses[key] for key in domain]
    _check_alpha(alpha)
    return _smoothed_masses(p.masses, q.masses, alpha)


def kl(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    alpha: float | None = None,
    symmetrize: bool = False,
) -> float:
    """sum_x p(x) log2(p(x) / q(x)), in bits.  Asymmetric, >= 0.

    Terms with p(x) == 0 vanish (0 log 0 := 0 by continuity).  p(x) > 0 with
    q(x) == 0 would be infinite and raises UnsmoothedZeroError instead.
    With ``alpha``, equals ``kl(*smooth_pair(p, q, alpha))``.  With
    ``symmetrize``, returns ``0.5 * (kl(p, q, alpha) + kl(q, p, alpha))``
    from one alignment of the pair, checking the direction p -> q first.
    """
    domain, p_masses, q_masses = _aligned(p, q, alpha)
    forward = _kl_sum(domain, p_masses, q_masses)
    if not symmetrize:
        return forward
    return 0.5 * (forward + _kl_sum(domain, q_masses, p_masses))


def _kl_sum(domain: list[str], p_masses: list[float], q_masses: list[float]) -> float:
    terms = []
    for key, p_mass, q_mass in zip(domain, p_masses, q_masses):
        if p_mass == 0.0:
            continue
        if q_mass == 0.0:
            raise UnsmoothedZeroError(f"unsmoothed zero at key {key!r}")
        terms.append(p_mass * math.log2(p_mass / q_mass))
    return math.fsum(terms)


def js(p: DiscreteDistribution, q: DiscreteDistribution, alpha: float | None = None) -> float:
    """Square root of the Jensen-Shannon divergence, log base 2, in [0, 1].

    Evaluated through the mixture m = (p + q) / 2 as
    sqrt((kl(p, m) + kl(q, m)) / 2); m is positive wherever p or q is, so no
    smoothing is needed for this to be defined.  With ``alpha``, equals
    ``js(*smooth_pair(p, q, alpha))``.
    """
    _, p_masses, q_masses = _aligned(p, q, alpha)
    terms = []
    for p_mass, q_mass in zip(p_masses, q_masses):
        mid = (p_mass + q_mass) / 2.0
        if p_mass > 0.0:
            terms.append(0.5 * p_mass * math.log2(p_mass / mid))
        if q_mass > 0.0:
            terms.append(0.5 * q_mass * math.log2(q_mass / mid))
    total = math.fsum(terms)
    # tiny negative totals are rounding noise from p == q
    return math.sqrt(total) if total > 0.0 else 0.0


def _generator_kl(t: float) -> float:
    return t * math.log2(t) if t > 0.0 else 0.0


def _generator_js(t: float) -> float:
    inner = (t + 1.0) * math.log2(2.0 / (t + 1.0))
    if t > 0.0:
        inner += t * math.log2(t)
    return inner / 2.0


def f_divergence(p: DiscreteDistribution, q: DiscreteDistribution, kind: str) -> float:
    """Generator form sum_x q(x) f(p(x) / q(x)) of the same two divergences.

    f_kl(t) = t log2 t and f_js(t) = ((t + 1) log2(2 / (t + 1)) + t log2 t) / 2.
    Kept as an independent route to kl() and js(); the two agree to ~1e-12.
    For kind "js" the square root of the sum is returned, matching js().
    Keys where q(x) == 0 but p(x) > 0 contribute the t -> infinity limit:
    infinite for kl (raises), p(x) / 2 for js.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown divergence kind {kind!r}")
    _check_domains(p, q)
    terms = []
    for key in sorted(p.masses):
        p_mass = p.masses[key]
        q_mass = q.masses[key]
        if q_mass == 0.0:
            if p_mass == 0.0:
                continue
            if kind == "kl":
                raise UnsmoothedZeroError(f"unsmoothed zero at key {key!r}")
            terms.append(p_mass / 2.0)
            continue
        ratio = p_mass / q_mass
        generator = _generator_kl if kind == "kl" else _generator_js
        terms.append(q_mass * generator(ratio))
    total = math.fsum(terms)
    if kind == "js":
        return math.sqrt(total) if total > 0.0 else 0.0
    return total
