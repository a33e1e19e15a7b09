import math
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import distance as sp_distance

from newsdiv.distrib import DiscreteDistribution
from newsdiv.divergence import f_divergence, js, kl, smooth_pair
from newsdiv.errors import UnsmoothedZeroError


def dist(*masses):
    return DiscreteDistribution({f"k{i}": mass for i, mass in enumerate(masses)})


# Distributions over overlapping subsets of a few keys, zero masses included.
DISTRIBUTIONS = (
    st.dictionaries(st.sampled_from("abcdef"), st.just(0.0) | st.floats(1e-6, 10.0), min_size=1)
    .filter(lambda weights: sum(weights.values()) > 0.0)
    .map(DiscreteDistribution.from_weights)
)


def random_pair(rng, size):
    p = [rng.random() + 1e-9 for _ in range(size)]
    q = [rng.random() + 1e-9 for _ in range(size)]
    p_total, q_total = sum(p), sum(q)
    return dist(*(x / p_total for x in p)), dist(*(x / q_total for x in q))


class TestKL:
    def test_identity(self):
        p = dist(0.5, 0.5)
        assert kl(p, p) == 0.0

    def test_hand_value(self):
        assert kl(dist(0.5, 0.5), dist(0.25, 0.75)) == pytest.approx(0.2075, abs=1e-4)

    def test_hand_value_swapped_shows_asymmetry(self):
        assert kl(dist(0.25, 0.75), dist(0.5, 0.5)) == pytest.approx(0.1887, abs=1e-4)

    def test_zero_p_terms_vanish(self):
        assert kl(dist(1.0, 0.0), dist(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_unsmoothed_zero_raises(self):
        with pytest.raises(UnsmoothedZeroError, match="unsmoothed zero"):
            kl(dist(0.5, 0.5), dist(1.0, 0.0))

    def test_non_negative_on_random_pairs(self):
        rng = random.Random(11)
        for _ in range(500):
            p, q = random_pair(rng, rng.randint(2, 8))
            assert kl(p, q) >= 0.0

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl(dist(1.0), dist(0.5, 0.5))


class TestJS:
    def test_identity(self):
        p = dist(0.3, 0.7)
        assert js(p, p) == 0.0

    def test_hand_value(self):
        assert js(dist(0.5, 0.5), dist(0.25, 0.75)) == pytest.approx(0.2209, abs=1e-4)

    def test_disjoint_support_hits_upper_bound(self):
        assert js(dist(1.0, 0.0), dist(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_scipy(self):
        cases = [
            ([0.5, 0.5], [0.25, 0.75]),
            ([2 / 3, 1 / 3], [1.0, 0.0]),
            ([2 / 3, 1 / 3], [0.0, 1.0]),
            ([0.2, 0.8], [0.0, 1.0]),
            ([0.5, 0.5], [0.0, 1.0]),
        ]
        for p_masses, q_masses in cases:
            expected = sp_distance.jensenshannon(p_masses, q_masses, base=2)
            assert js(dist(*p_masses), dist(*q_masses)) == pytest.approx(expected, abs=1e-12)

    def test_exact_symmetry(self):
        rng = random.Random(23)
        for _ in range(500):
            p, q = random_pair(rng, rng.randint(2, 8))
            assert js(p, q) == js(q, p)

    def test_bounds(self):
        rng = random.Random(37)
        for _ in range(500):
            p, q = random_pair(rng, rng.randint(2, 8))
            assert 0.0 <= js(p, q) <= 1.0

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.001])
    def test_smallest_subnormal_against_zero(self, alpha):
        """The midpoint of 5e-324 and 0.0 underflows to 0.0; the term it
        divides, 0.5 * 5e-324, rounds to 0.0 as well."""
        p = DiscreteDistribution.from_weights({"a": 1.0, "b": 5e-324})
        q = DiscreteDistribution.from_weights({"a": 1.0, "b": 0.0})
        assert js(p, q, alpha) == js(q, p, alpha) == f_divergence(p, q, "js") == 0.0


class TestGeneratorForm:
    def test_kl_equivalence(self):
        rng = random.Random(5)
        for _ in range(1000):
            p, q = random_pair(rng, rng.randint(2, 8))
            assert f_divergence(p, q, "kl") == pytest.approx(kl(p, q), abs=1e-10)

    def test_js_equivalence(self):
        rng = random.Random(6)
        for _ in range(1000):
            p, q = random_pair(rng, rng.randint(2, 8))
            assert f_divergence(p, q, "js") == pytest.approx(js(p, q), abs=1e-10)

    def test_generator_vanishes_at_equal_ratio(self):
        p = dist(0.25, 0.75)
        assert f_divergence(p, p, "js") == 0.0
        assert f_divergence(p, p, "kl") == 0.0

    def test_js_handles_zero_q(self):
        # limit term p/2 where q == 0, q/2 where p == 0
        assert f_divergence(dist(1.0, 0.0), dist(0.0, 1.0), "js") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind,divergence", [("kl", kl), ("js", js)])
    def test_key_empty_on_both_sides_adds_nothing(self, kind, divergence):
        # For kl, a key with q == 0 is otherwise an unsmoothed zero.
        p, q = dist(0.25, 0.0, 0.75), dist(0.5, 0.0, 0.5)
        assert f_divergence(p, q, kind) == pytest.approx(divergence(p, q), abs=1e-12)
        assert f_divergence(p, q, kind) == f_divergence(dist(0.25, 0.75), dist(0.5, 0.5), kind)

    def test_kl_generator_raises_on_zero_q(self):
        with pytest.raises(UnsmoothedZeroError):
            f_divergence(dist(0.5, 0.5), dist(1.0, 0.0), "kl")

    def test_unknown_kind_rejected(self):
        p = dist(1.0)
        with pytest.raises(ValueError):
            f_divergence(p, p, "hellinger")


class TestSmoothedFlow:
    def test_smoothing_makes_kl_finite(self):
        p = dist(0.5, 0.5)
        q = dist(1.0, 0.0)
        p_bar, q_bar = smooth_pair(p, q, 0.001)
        value = kl(p_bar, q_bar)
        assert math.isfinite(value) and value > 0

    def test_js_after_smoothing_stays_bounded(self):
        p = dist(1.0, 0.0)
        q = dist(0.0, 1.0)
        p_bar, q_bar = smooth_pair(p, q, 0.001)
        assert 0.0 < js(p_bar, q_bar) < 1.0

    @settings(max_examples=300, deadline=None)
    @given(p=DISTRIBUTIONS, q=DISTRIBUTIONS, alpha=st.sampled_from([0.0, 0.001, 0.2, 0.49]))
    def test_alpha_smooths_exactly_like_smooth_pair(self, p, q, alpha):
        assert js(p, q, alpha) == js(*smooth_pair(p, q, alpha))
        for left, right in ((p, q), (q, p)):
            try:
                expected = kl(*smooth_pair(left, right, alpha))
            except UnsmoothedZeroError as exc:
                with pytest.raises(UnsmoothedZeroError) as raised:
                    kl(left, right, alpha)
                assert str(raised.value) == str(exc)
            else:
                assert kl(left, right, alpha) == expected

    @settings(max_examples=300, deadline=None)
    @given(p=DISTRIBUTIONS, q=DISTRIBUTIONS, alpha=st.sampled_from([None, 0.0, 0.001, 0.2, 0.49]))
    def test_symmetrized_kl_equals_mean_of_both_directions(self, p, q, alpha):
        if alpha is None:  # unsmoothed: restrict q to p's domain
            weights = {key: q.mass(key) for key in p.masses}
            assume(sum(weights.values()) > 0.0)
            q = DiscreteDistribution.from_weights(weights)
        try:
            expected = 0.5 * (kl(p, q, alpha) + kl(q, p, alpha))
        except UnsmoothedZeroError as exc:
            with pytest.raises(UnsmoothedZeroError) as raised:
                kl(p, q, alpha, symmetrize=True)
            assert str(raised.value) == str(exc)
        else:
            assert kl(p, q, alpha, symmetrize=True) == expected

    def test_symmetrized_kl_checks_p_to_q_first(self):
        p = DiscreteDistribution({"a": 0.5, "c": 0.5})
        q = DiscreteDistribution({"a": 0.5, "b": 0.5})
        with pytest.raises(UnsmoothedZeroError, match="unsmoothed zero at key 'c'"):
            kl(p, q, 0.0, symmetrize=True)

    def test_unsmoothed_zero_names_the_first_key_in_sorted_order(self):
        p = DiscreteDistribution({"c": 0.5, "b": 0.5})
        q = DiscreteDistribution({"a": 1.0})
        with pytest.raises(UnsmoothedZeroError, match="unsmoothed zero at key 'b'"):
            kl(p, q, 0.0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            js(dist(1.0), dist(1.0), 0.5)


# The sorted-domain formulas that js and kl used before their pair kernel,
# kept here as the reference that the kernel must match bit for bit.
def sorted_reference_masses(p, q, alpha):
    if alpha is None:
        domain = sorted(p.masses)
        return domain, [p.masses[key] for key in domain], [q.masses[key] for key in domain]
    domain = sorted(p.masses.keys() | q.masses.keys())
    keep = 1.0 - alpha
    p_mixed = [keep * p.masses.get(key, 0.0) + alpha * q.masses.get(key, 0.0) for key in domain]
    q_mixed = [keep * q.masses.get(key, 0.0) + alpha * p.masses.get(key, 0.0) for key in domain]
    p_total = math.fsum(p_mixed)
    q_total = math.fsum(q_mixed)
    return domain, [value / p_total for value in p_mixed], [value / q_total for value in q_mixed]


def sorted_reference_kl_sum(domain, p_masses, q_masses):
    terms = []
    for key, p_mass, q_mass in zip(domain, p_masses, q_masses):
        if p_mass == 0.0:
            continue
        if q_mass == 0.0:
            raise UnsmoothedZeroError(f"unsmoothed zero at key {key!r}")
        terms.append(p_mass * math.log2(p_mass / q_mass))
    return math.fsum(terms)


def sorted_reference(kind, p, q, alpha):
    domain, p_masses, q_masses = sorted_reference_masses(p, q, alpha)
    if kind == "js":
        terms = []
        for p_mass, q_mass in zip(p_masses, q_masses):
            mid = (p_mass + q_mass) / 2.0
            if mid == 0.0:  # 5e-324 against 0.0: the term, 0.5 * 5e-324, rounds to 0.0
                continue
            if p_mass > 0.0:
                terms.append(0.5 * p_mass * math.log2(p_mass / mid))
            if q_mass > 0.0:
                terms.append(0.5 * q_mass * math.log2(q_mass / mid))
        total = math.fsum(terms)
        return math.sqrt(total) if total > 0.0 else 0.0
    forward = sorted_reference_kl_sum(domain, p_masses, q_masses)
    if kind == "kl":
        return forward
    return 0.5 * (forward + sorted_reference_kl_sum(domain, q_masses, p_masses))


def outcome(function, *args):
    """float.hex of the value, or the error's type and message."""
    try:
        return float.hex(function(*args))
    except UnsmoothedZeroError as exc:
        return type(exc).__name__, str(exc)


def over(keys):
    """Distributions over exactly ``keys``, zero and subnormal masses included."""
    weights = st.fixed_dictionaries({key: st.just(0.0) | st.floats(0.0, 10.0) for key in keys})
    return weights.filter(lambda w: math.fsum(w.values()) > 0.0).map(DiscreteDistribution.from_weights)


def subsets(letters, max_size=None):
    return st.lists(st.sampled_from(letters), min_size=1, max_size=max_size, unique=True)


PAIRS = st.one_of(
    st.tuples(DISTRIBUTIONS, DISTRIBUTIONS),
    subsets("abcdef").flatmap(lambda keys: st.tuples(over(keys), over(keys))),
    st.tuples(subsets("abc").flatmap(over), subsets("def").flatmap(over)),
    st.tuples(subsets("abcdef", 1).flatmap(over), DISTRIBUTIONS),
    st.tuples(DISTRIBUTIONS, subsets("abcdef", 1).flatmap(over)),
    st.tuples(subsets("abc", 1).flatmap(over), subsets("def", 1).flatmap(over)),
)


class TestKernelAgainstSortedFormulas:
    @settings(max_examples=600, deadline=None)
    @given(
        pair=PAIRS,
        alpha=st.sampled_from([None, 0.0, 0.001, 0.2, 0.49]) | st.floats(0.0, 0.49),
    )
    def test_bit_identical(self, pair, alpha):
        p, q = pair
        if alpha is None:
            assume(p.masses.keys() == q.masses.keys())
        for left, right in ((p, q), (q, p)):
            assert outcome(js, left, right, alpha) == outcome(sorted_reference, "js", left, right, alpha)
            assert outcome(kl, left, right, alpha) == outcome(sorted_reference, "kl", left, right, alpha)
            assert outcome(partial(kl, symmetrize=True), left, right, alpha) == outcome(
                sorted_reference, "symmetrized kl", left, right, alpha
            )
