"""KL and Jensen-Shannon divergences between aligned discrete distributions,
and ``smooth_pair``, which mixes a pair on its union domain so both are defined.

All logarithms are base 2, which bounds the Jensen-Shannon divergence by 1.
``js`` returns the square root of that bounded value: unlike KL it is a
proper distance (identity of indiscernibles, symmetry, triangle inequality).
Sums accumulate with ``math.fsum``, which is correctly rounded, so results
are exact to the last bit and independent of key and caller ordering.
"""
from __future__ import annotations

import math
from typing import Mapping

from .distrib import DiscreteDistribution, _check_alpha
from .errors import UnsmoothedZeroError

KINDS = ("kl", "js")


def _check_domains(p: DiscreteDistribution, q: DiscreteDistribution) -> None:
    if p.masses.keys() != q.masses.keys():
        raise ValueError("distributions must share one domain; align them with smooth_pair")


def _mixed(
    p_masses: Mapping[str, float], q_masses: Mapping[str, float], alpha: float
) -> tuple[list[float], list[float], float, float]:
    """The pair kernel: the masses of ``smooth_pair``'s (p_bar, q_bar) before
    normalising, ``keep * p + alpha * q`` and ``keep * q + alpha * p`` on the
    union domain in ``_union`` order, and their two ``fsum`` totals.

    A key missing from one side takes the same float operations with a mass
    of 0.0, which leave ``keep * mass`` and ``alpha * mass`` unchanged for
    masses >= 0, so those terms are computed without the zero.  ``alpha``
    must already be checked."""
    keep = 1.0 - alpha
    p_mixed = []
    q_mixed = []
    q_mass_of = q_masses.get
    for key, p_mass in p_masses.items():
        q_mass = q_mass_of(key)
        if q_mass is None:
            p_mixed.append(keep * p_mass)
            q_mixed.append(alpha * p_mass)
        else:
            p_mixed.append(keep * p_mass + alpha * q_mass)
            q_mixed.append(keep * q_mass + alpha * p_mass)
    for key, q_mass in q_masses.items():
        if key not in p_masses:
            p_mixed.append(alpha * q_mass)
            q_mixed.append(keep * q_mass)
    return p_mixed, q_mixed, math.fsum(p_mixed), math.fsum(q_mixed)


def _union(p_masses: Mapping[str, float], q_masses: Mapping[str, float]) -> list[str]:
    """The keys of ``_mixed``'s masses: p's, then q's others."""
    return [*p_masses, *(key for key in q_masses if key not in p_masses)]


def smooth_pair(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    alpha: float,
) -> tuple[DiscreteDistribution, DiscreteDistribution]:
    """Mix each distribution with its counterpart on the union domain.

    Returns (p_bar, q_bar) with p_bar = (1 - alpha) p + alpha q and
    symmetrically for q_bar, renormalized.  For alpha > 0, q_bar is positive
    wherever p is (no zero division) and p_bar is positive wherever q is
    (the divergence cannot be forced to zero by a key missing from p).
    """
    _check_alpha(alpha)
    p_mixed, q_mixed, p_total, q_total = _mixed(p.masses, q.masses, alpha)
    keys = _union(p.masses, q.masses)
    return (
        DiscreteDistribution({key: mass / p_total for key, mass in zip(keys, p_mixed)}),
        DiscreteDistribution({key: mass / q_total for key, mass in zip(keys, q_mixed)}),
    )


def _aligned(
    p: DiscreteDistribution, q: DiscreteDistribution, alpha: float | None
) -> tuple[list[float], list[float], float, float]:
    """The masses of p and q over one domain in ``_union`` order, and the
    totals to divide them by.  Without ``alpha`` the two must share one
    domain, and the totals are 1.0; with it they are ``_mixed``'s."""
    if alpha is None:
        _check_domains(p, q)
        q_masses = q.masses
        return list(p.masses.values()), [q_masses[key] for key in p.masses], 1.0, 1.0
    _check_alpha(alpha)
    return _mixed(p.masses, q.masses, alpha)


def kl(
    p: DiscreteDistribution,
    q: DiscreteDistribution,
    alpha: float | None = None,
    symmetrize: bool = False,
) -> float:
    """sum_x p(x) log2(p(x) / q(x)), in bits.  Asymmetric, >= 0.

    Terms with p(x) == 0 vanish (0 log 0 := 0 by continuity).  p(x) > 0 with
    q(x) == 0 would be infinite and raises UnsmoothedZeroError instead,
    naming the first such key in sorted order.  With ``alpha``, equals
    ``kl(*smooth_pair(p, q, alpha))``.  With ``symmetrize``, returns
    ``0.5 * (kl(p, q, alpha) + kl(q, p, alpha))`` from one alignment of the
    pair, checking the direction p -> q first.
    """
    p_mixed, q_mixed, p_total, q_total = _aligned(p, q, alpha)
    p_bar = [mass / p_total for mass in p_mixed]
    q_bar = [mass / q_total for mass in q_mixed]
    directions = ((p_bar, q_bar), (q_bar, p_bar)) if symmetrize else ((p_bar, q_bar),)
    sums = [_kl_sum(source, target) for source, target in directions]
    if None in sums:
        keys = _union(p.masses, q.masses)
        for source, target in directions:
            for key, source_mass, target_mass in sorted(zip(keys, source, target)):
                if source_mass != 0.0 and target_mass == 0.0:
                    raise UnsmoothedZeroError(f"unsmoothed zero at key {key!r}")
    return sums[0] if not symmetrize else 0.5 * (sums[0] + sums[1])


def _kl_sum(p_masses: list[float], q_masses: list[float]) -> float | None:
    """sum p log2(p / q) over aligned masses; None where a q is zero and
    its p is not."""
    terms = []
    for p_mass, q_mass in zip(p_masses, q_masses):
        if p_mass == 0.0:
            continue
        if q_mass == 0.0:
            return None
        terms.append(p_mass * math.log2(p_mass / q_mass))
    return math.fsum(terms)


def js(p: DiscreteDistribution, q: DiscreteDistribution, alpha: float | None = None) -> float:
    """Square root of the Jensen-Shannon divergence, log base 2, in [0, 1].

    Evaluated through the mixture m = (p + q) / 2 as
    sqrt((kl(p, m) + kl(q, m)) / 2); m is positive wherever p or q is, so no
    smoothing is needed for this to be defined.  With ``alpha``, equals
    ``js(*smooth_pair(p, q, alpha))``.
    """
    p_mixed, q_mixed, p_total, q_total = _aligned(p, q, alpha)
    try:
        total = _js_sum(p_mixed, q_mixed, p_total, q_total)
    except ZeroDivisionError:
        # mid underflows to 0.0 only where one side holds 5e-324 and the
        # other 0.0; that term's exact value, 0.5 * 5e-324, rounds to 0.0.
        kept = [(p_mass, q_mass) for p_mass, q_mass in zip(p_mixed, q_mixed)
                if (p_mass / p_total + q_mass / q_total) / 2.0 > 0.0]
        total = _js_sum([pair[0] for pair in kept], [pair[1] for pair in kept], p_total, q_total)
    # tiny negative totals are rounding noise from p == q
    return math.sqrt(total) if total > 0.0 else 0.0


def _js_sum(p_mixed: list[float], q_mixed: list[float], p_total: float, q_total: float) -> float:
    """The Jensen-Shannon divergence of masses to divide by their totals."""
    terms = []
    for p_mass, q_mass in zip(p_mixed, q_mixed):
        p_mass /= p_total
        q_mass /= q_total
        mid = (p_mass + q_mass) / 2.0
        if p_mass > 0.0:
            terms.append(0.5 * p_mass * math.log2(p_mass / mid))
        if q_mass > 0.0:
            terms.append(0.5 * q_mass * math.log2(q_mass / mid))
    return math.fsum(terms)


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
