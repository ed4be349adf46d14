"""Spectrum constructors and their invariants."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bermoments import (
    ChernData,
    PuiseuxData,
    Spectrum,
    TpqrParams,
    WeightSystem,
    abstract_spectrum,
    spectrum_curve,
    spectrum_from_weights,
    spectrum_tpqr,
    thom_sebastiani,
)
from bermoments.weights import _nonnegative


brieskorn_st = st.lists(st.integers(2, 6), min_size=1, max_size=4).map(
    lambda ms: WeightSystem(tuple(F(1, m) for m in ms))
)


def assert_valid(s: Spectrum):
    lookup = dict(s.entries)
    for alpha, mult in s.entries:
        assert mult > 0
        assert -1 < alpha < s.n
        assert lookup[s.n - 1 - alpha] == mult


class TestWeightSystems:
    def test_single_half_weight(self):
        s = spectrum_from_weights(WeightSystem((F(1, 2),)))
        assert s.n == 0 and s.entries == ((F(-1, 2), F(1)),)

    def test_single_third_weight(self):
        s = spectrum_from_weights(WeightSystem((F(1, 3),)))
        assert s.entries == ((F(-2, 3), F(1)), (F(-1, 3), F(1)))

    def test_cusp(self):
        s = spectrum_from_weights(WeightSystem((F(1, 3), F(1, 2))))
        assert s.n == 1 and s.mu == 2
        assert s.entries == ((F(-1, 6), F(1)), (F(1, 6), F(1)))

    def test_non_unit_fraction_weights(self):
        # x^3 y + y^5 and x^2 y + y^5 are genuine weight systems
        z11 = spectrum_from_weights(WeightSystem((F(4, 15), F(1, 5))))
        assert z11.mu == 11
        assert_valid(z11)
        d6 = spectrum_from_weights(WeightSystem((F(2, 5), F(1, 5))))
        assert d6.mu == 6
        assert_valid(d6)

    def test_unrealizable_weights_leave_a_remainder(self):
        for weights in [(F(2, 5), F(1, 3)), (F(3, 7), F(2, 9), F(1, 2))]:
            with pytest.raises(ValueError, match="remainder|inexact"):
                spectrum_from_weights(WeightSystem(weights))

    def test_negative_coefficient_refused(self):
        assert _nonnegative([1, 0, 2]) == [1, 0, 2]
        with pytest.raises(ValueError, match="negative coefficient"):
            _nonnegative([1, -1, 1])

    @given(denoms=st.lists(st.integers(2, 12), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_brieskorn_pham_lattice_sum(self, denoms):
        # x_0^a_0 + ... + x_n^a_n has the spectrum {sum k_i/a_i - 1 : 1 <= k_i < a_i}
        lattice = Counter(
            sum(F(k, a) for k, a in zip(ks, denoms)) - 1
            for ks in product(*(range(1, a) for a in denoms))
        )
        s = spectrum_from_weights(WeightSystem(tuple(F(1, a) for a in denoms)))
        assert s.entries == tuple(sorted((alpha, F(m)) for alpha, m in lattice.items()))

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            WeightSystem((F(3, 5),))
        with pytest.raises(ValueError):
            WeightSystem((F(0),))
        with pytest.raises(ValueError):
            WeightSystem(())

    @given(ws=brieskorn_st)
    @settings(max_examples=40, deadline=None)
    def test_mu_and_spread_formulas(self, ws):
        s = spectrum_from_weights(ws)
        assert_valid(s)
        assert s.mu == ws.mu
        assert s.spread == ws.spread
        assert s.n == ws.n

    def test_integer_multiplicities(self):
        s = spectrum_from_weights(WeightSystem((F(1, 4), F(1, 4), F(1, 3))))
        assert all(m.denominator == 1 for _, m in s.entries)


class TestTpqr:
    def test_237(self):
        s = spectrum_tpqr(TpqrParams(2, 3, 7))
        assert s.n == 2 and s.mu == 11
        expected = {F(0), F(1), F(1, 2), F(1, 3), F(2, 3)} | {F(i, 7) for i in range(1, 7)}
        assert {a for a, _ in s.entries} == expected
        assert_valid(s)

    def test_222_is_not_hyperbolic(self):
        params = TpqrParams(2, 2, 2)
        assert not params.is_hyperbolic
        s = spectrum_tpqr(params)
        assert s.mu == 5
        assert dict(s.entries)[F(1, 2)] == 3

    def test_symmetry_for_random_triples(self):
        rng = random.Random(7)
        for _ in range(10):
            p, q, r = (rng.randint(2, 9) for _ in range(3))
            s = spectrum_tpqr(TpqrParams(p, q, r))
            assert_valid(s)
            # each multiplicity counts the fractions i/m that land on it
            expected = Counter([F(0), F(1)] + [F(i, m) for m in (p, q, r) for i in range(1, m)])
            assert dict(s.entries) == expected
            assert s.mu == p + q + r - 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TpqrParams(1, 3, 7)


class TestPuiseux:
    def test_derived_quantities(self):
        data = PuiseuxData(((2, 3), (2, 7)))
        assert data.w == (3, 13)
        assert data.nprime == (4, 2, 1)
        assert data.deltas == (1,)

    def test_invariant_violations(self):
        with pytest.raises(ValueError, match="determinant"):
            PuiseuxData(((2, 3), (2, 5)))
        with pytest.raises(ValueError, match="coprime"):
            PuiseuxData(((2, 4),))
        with pytest.raises(ValueError, match="n_i"):
            PuiseuxData(((1, 3),))
        with pytest.raises(ValueError, match="r_1"):
            PuiseuxData(((3, 2),))

    def test_single_pair_equals_two_weight_spectrum(self):
        for n1, r1 in [(2, 3), (2, 5), (3, 4), (3, 7), (4, 5)]:
            curve = spectrum_curve(PuiseuxData(((n1, r1),)))
            qh = spectrum_from_weights(WeightSystem((F(1, n1), F(1, r1))))
            assert curve == qh

    def test_two_pairs_example(self):
        s = spectrum_curve(PuiseuxData(((2, 3), (2, 7))))
        assert s.n == 1 and s.mu == 16
        assert all(m.denominator == 1 for _, m in s.entries)
        assert_valid(s)

    def test_against_geometric_expansion_oracle(self):
        # independent route: expand every block as an explicit geometric sum
        # over a common denominator and combine the exponent multisets
        import math

        for pairs in [((2, 3), (2, 7)), ((2, 3), (3, 16)), ((3, 4), (2, 9)), ((2, 5), (2, 11), (2, 23))]:
            data = PuiseuxData(pairs)
            g = data.g
            w = (None,) + data.w
            np_ = data.nprime
            moduli = [np_[0], w[1] * np_[1]]
            for k in range(1, g):
                moduli += [w[k + 1] * np_[k + 1], w[k] * np_[k - 1], np_[k]]
            denom = math.lcm(*moduli)

            def block(m):
                return {F(i * denom // m, denom): 1 for i in range(1, m)}

            def convolve(a, b, sign=1):
                out = {}
                for ea, ca in a.items():
                    for eb, cb in b.items():
                        key = ea + eb
                        out[key] = out.get(key, 0) + sign * ca * cb
                return out

            total = convolve(block(np_[0]), block(w[1] * np_[1]))
            for k in range(1, g):
                for e, c in convolve(block(w[k + 1] * np_[k + 1]), block(np_[k])).items():
                    total[e] = total.get(e, 0) + c
                for e, c in convolve(block(w[k] * np_[k - 1]), block(np_[k]), -1).items():
                    total[e] = total.get(e, 0) + c
            expected = tuple(
                sorted((e - 1, F(c)) for e, c in total.items() if c)
            )
            assert spectrum_curve(data).entries == expected


class TestThomSebastiani:
    def test_cusp_as_join(self):
        a = spectrum_from_weights(WeightSystem((F(1, 3),)))
        b = spectrum_from_weights(WeightSystem((F(1, 2),)))
        joined = thom_sebastiani(a, b)
        assert joined == spectrum_from_weights(WeightSystem((F(1, 3), F(1, 2))))

    def test_stabilization_preserves_mu(self):
        a = spectrum_from_weights(WeightSystem((F(1, 5), F(1, 3))))
        a1 = spectrum_from_weights(WeightSystem((F(1, 2),)))
        joined = thom_sebastiani(a, a1)
        assert joined.mu == a.mu
        assert joined.n == a.n + 1

    @given(
        ms_a=st.lists(st.integers(2, 6), min_size=1, max_size=3),
        ms_b=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_join_matches_weight_union(self, ms_a, ms_b):
        wa = WeightSystem(tuple(F(1, m) for m in ms_a))
        wb = WeightSystem(tuple(F(1, m) for m in ms_b))
        union = WeightSystem(wa.weights + wb.weights)
        joined = thom_sebastiani(spectrum_from_weights(wa), spectrum_from_weights(wb))
        assert joined == spectrum_from_weights(union)
        assert_valid(joined)


class TestAbstractSpectra:
    def test_rational_multiplicities_allowed(self):
        s = abstract_spectrum(
            2, ((F(0), F(7, 2)), (F(1, 2), F(5)), (F(1), F(7, 2)))
        )
        assert s.mu == 12

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            abstract_spectrum(2, ((F(0), 1), (F(1, 2), 1)))

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="between"):
            abstract_spectrum(0, ((F(-3, 2), 1), (F(1, 2), 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            abstract_spectrum(2, ())

    def test_positive_multiplicity_required(self):
        with pytest.raises(ValueError, match="positive"):
            abstract_spectrum(1, ((F(0), 0),))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_check_matches_mirror_lookup(self, data):
        # unsorted entry lists with repeats, in mixed input types (exact
        # floats among them), some made asymmetric, non-positive or out of
        # range; Spectrum must keep or refuse each one as the
        # merge-then-look-up-each-mirror check does
        n = data.draw(st.integers(0, 3), label="n")
        small = st.fractions(min_value=0, max_value=F(3, 2), max_denominator=12)
        mults = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
        entries = []
        for d, m in data.draw(st.lists(st.tuples(small, mults), max_size=5), label="pairs"):
            entries += [(F(n - 1, 2) - d, m), (F(n - 1, 2) + d, m)]
        defect = data.draw(st.sampled_from(["none", "asymmetric", "nonpositive", "outside"]))
        if defect == "asymmetric":
            entries.append((data.draw(st.fractions(-1, 3, max_denominator=12)), data.draw(mults)))
        elif defect == "nonpositive":
            mult = data.draw(st.fractions(-2, 0, max_denominator=4))
            alpha = entries[0][0] if entries and data.draw(st.booleans()) else F(n - 1, 2)
            entries.append((alpha, mult))
        elif defect == "outside":
            # a mirrored pair at or beyond -1 and n
            d = F(n + 1, 2) + data.draw(st.fractions(0, 2, max_denominator=4))
            m = data.draw(mults)
            entries += [(F(n - 1, 2) - d, m), (F(n - 1, 2) + d, m)]
        split = []
        for alpha, mult in entries:
            parts = data.draw(st.lists(st.sampled_from([F(1, 2), 1]), max_size=2))
            split += [(alpha, mult - sum(parts))] + [(alpha, part) for part in parts]
        shuffled = data.draw(st.permutations(split))

        def as_input(value):
            form = data.draw(st.sampled_from([F, str, int, float]))
            exact = {int: value.denominator == 1, float: value.denominator in (1, 2, 4, 8)}
            return form(value) if exact.get(form, True) else F(value)

        given_entries = tuple((as_input(alpha), as_input(mult)) for alpha, mult in shuffled)
        assert_same_verdict(n, given_entries)

    @pytest.mark.parametrize(
        "n, entries",
        [
            # exact floats
            (1, ((-0.5, 0.25), (0.5, F(1, 4)), (0.25, 1), ("-1/4", 1.0))),
            # equal alphas given as int, str and Fraction merge
            (3, ((1, F(1, 2)), ("1", 1), (F(1), F(3, 2)), (0, 2), (2, "2"))),
            (3, ((1, F(1, 2)), ("1", 1), (F(1), F(3, 2)), (0, 2), (2, "3"))),
            # a symmetric pair outside (-1, n), and one on its ends
            (1, ((F(-3, 2), 1), (F(3, 2), 1))),
            (2, ((-1, 1), (2, 1))),
            # numerators mirror, denominators differ: -1/2 + 1/3 != 0
            (1, ((F(-1, 2), 1), (F(1, 3), 1))),
            (2, ((F(1, 3), 1), (F(2, 5), 1))),
        ],
    )
    def test_check_pins(self, n, entries):
        assert_same_verdict(n, entries)

    def test_many_large_distinct_denominators(self):
        # about a thousand mirrored pairs a/p, (p - a)/p (n = 2) with distinct
        # primes p near 10^6: the check compares them without a common
        # denominator, and a perturbed copy is refused as the lookup refuses it
        rng = random.Random(7)
        primes = [p for p in range(10**6, 10**6 + 20000) if all(p % f for f in range(2, 1001))][:1000]
        assert len(primes) == 1000
        entries = []
        for p in primes:
            a, m = rng.choice([-1, 1]) * rng.randrange(1, p), F(rng.randint(1, 5), rng.randint(1, 3))
            entries += [(F(a, p), m), (F(p - a, p), m)]
        rng.shuffle(entries)
        assert len(assert_same_verdict(2, entries)) == 2000
        for i in range(3):
            broken = list(entries)
            alpha, mult = broken[i]
            broken[i] = [(alpha + F(1, 10**6 + 3), mult), (alpha, mult + 1), (-alpha - 1, mult)][i]
            assert_same_verdict(2, broken)
            with pytest.raises(ValueError):
                Spectrum(2, tuple(broken))


def assert_same_verdict(n, entries):
    """Spectrum(n, entries) keeps or refuses entries as mirror_lookup_check does."""
    try:
        expected = mirror_lookup_check(n, entries)
    except ValueError as refusal:
        with pytest.raises(ValueError) as caught:
            Spectrum(n, tuple(entries))
        # same wording; the symmetry refusal may name another alpha
        assert str(caught.value).split(": alpha")[0] == str(refusal).split(": alpha")[0]
        return None
    got = Spectrum(n, tuple(entries)).entries
    assert got == expected
    assert all(type(v) is F for entry in got for v in entry)
    return got


def mirror_lookup_check(n, entries):
    """The former Spectrum check: merge, sort, then look up n - 1 - alpha of each entry."""
    merged = {}
    for alpha, mult in entries:
        alpha = F(alpha)
        merged[alpha] = merged.get(alpha, F(0)) + F(mult)
    entries = tuple(sorted(merged.items()))
    if not entries:
        raise ValueError("a spectrum needs at least one spectral number")
    for alpha, mult in entries:
        if mult <= 0:
            raise ValueError(f"multiplicity of {alpha} must be positive")
    lookup = dict(entries)
    for alpha, mult in entries:
        if lookup.get(n - 1 - alpha) != mult:
            raise ValueError(f"spectrum is not symmetric about {F(n - 1, 2)}: alpha = {alpha}")
    if not (-1 < entries[0][0] and entries[-1][0] < n):
        raise ValueError("spectral numbers must lie strictly between -1 and n")
    return entries


class TestTextFormat:
    def test_roundtrip(self):
        s = spectrum_tpqr(TpqrParams(2, 3, 7))
        assert Spectrum.from_text(s.to_text()) == s

    def test_comments_and_blanks_ignored(self):
        text = """
# a cusp
n 1

alpha -1/6 mult 1
alpha 1/6 mult 1
"""
        s = Spectrum.from_text(text)
        assert s == spectrum_from_weights(WeightSystem((F(1, 3), F(1, 2))))

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            Spectrum.from_text("n 1\nalpha nonsense\n")
        with pytest.raises(ValueError, match="missing"):
            Spectrum.from_text("alpha 0 mult 1\n")

    def test_second_n_line_refused(self):
        # in both file formats, which share one reader
        with pytest.raises(ValueError, match="spectrum file has a second 'n' line"):
            Spectrum.from_text("n 1\nalpha -1/6 mult 1\nalpha 1/6 mult 1\nn 3\n")
        with pytest.raises(ValueError, match="Chern file has a second 'n' line"):
            ChernData.from_text("n 1\nn 1\npartition 1 value 2\n")

    def test_merging_of_repeated_entries(self):
        merged = Spectrum.from_text("n 2\nalpha 1/2 mult 1\nalpha 1/2 mult 2\n")
        assert merged.entries == ((F(1, 2), F(3)),)
