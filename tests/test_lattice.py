"""Core lattice primitives: continued fractions, lengths, normals."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cqs.errors import DomainError
from cqs.lattice import (
    ROLE_A,
    ROLE_K,
    CoeffChain,
    LatticeVector,
    cf_eval,
    det2,
    hj_expand,
    hj_lengths,
    lattice_length,
    mvec,
    nvec,
    pair,
    primitive_normal,
)


def segment_point_count(p, q):
    """Independent oracle: lattice points on the closed segment [p, q],
    counted by scanning the bounding box."""
    (px, py), (qx, qy) = p, q
    count = 0
    for x in range(min(px, qx), max(px, qx) + 1):
        for y in range(min(py, qy), max(py, qy) + 1):
            if (qx - px) * (y - py) == (qy - py) * (x - px):
                count += 1
    return count


class TestHjExpand:
    def test_known_chain_for_18_7(self):
        assert hj_expand(18, 7).coeffs == (3, 3, 2, 2)

    def test_single_step(self):
        assert hj_expand(2, 1).coeffs == (2,)

    def test_18_11_roundtrips(self):
        chain = hj_expand(18, 11)
        assert chain.coeffs == (2, 3, 4)
        assert cf_eval(chain) == Fraction(18, 11)

    @pytest.mark.parametrize("n,q", [(1, 1), (4, 2), (5, 0), (5, 5), (5, 7)])
    def test_domain_errors(self, n, q):
        with pytest.raises(DomainError):
            hj_expand(n, q)

    def test_roundtrip_exhaustive(self):
        # all coprime pairs up to 200
        for n in range(2, 201):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                chain = hj_expand(n, q)
                assert all(c >= 2 for c in chain)
                assert cf_eval(chain) == Fraction(n, q)

    def test_lengths_match_expansions(self):
        # len(a) and len(b) without expanding, for every coprime pair n < 400
        for n in range(2, 400):
            for q in range(1, n):
                if gcd(n, q) == 1:
                    expected = (len(hj_expand(n, n - q)), len(hj_expand(n, q)))
                    assert hj_lengths(n, q) == expected, (n, q)

    def test_lengths_of_huge_pair(self):
        # a-chain [10^13+7, 3, 10^12+1, 5, 2, 10^14]: r = 1 + sum(a_i - 2)
        a = (10**13 + 7, 3, 10**12 + 1, 5, 2, 10**14)
        n = 27000000000029850000000007529999999999955
        q = 27000000000027150000000006344999999999962
        assert hj_expand(n, n - q).coeffs == a
        assert hj_lengths(n, q) == (6, 1 + sum(c - 2 for c in a))


class TestCfEval:
    def test_rdp_pattern_is_zero(self):
        assert cf_eval([1, 2, 2, 1]) == 0

    def test_undefined_tail(self):
        assert cf_eval([1, 1, 1]) is None

    def test_shortest_zero(self):
        assert cf_eval([1, 1]) == 0

    def test_hand_evaluation(self):
        assert cf_eval([2, 3, 4]) == Fraction(18, 11)

    def test_empty_chain_rejected(self):
        with pytest.raises(DomainError):
            cf_eval([])


class TestLatticeLength:
    @pytest.mark.parametrize(
        "p,q,expected",
        [((0, 1), (-2, 3), 2), ((1, 1), (0, 1), 1), ((1, 0), (-11, 18), 6)],
    )
    def test_known_lengths(self, p, q, expected):
        assert lattice_length(p, q) == expected
        assert segment_point_count(p, q) - 1 == expected

    def test_rational_endpoints(self):
        assert lattice_length((Fraction(1, 2), 0), (Fraction(3, 2), 1)) == 1
        assert lattice_length((0, 0), (Fraction(1, 3), Fraction(2, 3))) == Fraction(1, 3)

    def test_degenerate(self):
        with pytest.raises(DomainError):
            lattice_length((1, 2), (1, 2))

    @given(
        px=st.integers(-8, 8), py=st.integers(-8, 8),
        qx=st.integers(-8, 8), qy=st.integers(-8, 8),
        k=st.integers(-3, 3),
    )
    def test_invariant_under_shear(self, px, py, qx, qy, k):
        if (px, py) == (qx, qy):
            return
        sheared = lambda x, y: (x + k * y, y)
        assert lattice_length((px, py), (qx, qy)) == lattice_length(
            sheared(px, py), sheared(qx, qy)
        )

    def test_counting_oracle_grid(self):
        for px in range(-4, 5):
            for py in range(-4, 5):
                if (px, py) == (0, 0):
                    continue
                assert lattice_length((0, 0), (px, py)) == segment_point_count(
                    (0, 0), (px, py)
                ) - 1


class TestPrimitiveNormal:
    @pytest.mark.parametrize(
        "d,witness,expected",
        [
            ((-1, 1), (0, 1), (1, 1)),
            ((1, 0), (0, 1), (0, 1)),
            ((-2, 3), (1, 0), (3, 2)),
        ],
    )
    def test_examples(self, d, witness, expected):
        w = primitive_normal(nvec(*d), nvec(*witness))
        assert w.xy == expected

    def test_contract(self):
        for d in [(-4, 6), (5, 0), (3, -7), (0, 2)]:
            for witness in [(1, 0), (0, 1), (2, 3)]:
                dv, wv = nvec(*d), nvec(*witness)
                if det2(dv, wv) == 0:
                    continue
                w = primitive_normal(dv, wv)
                assert pair(dv, w) == 0
                assert w.is_primitive()
                assert pair(wv, w) > 0

    def test_parallel_witness_rejected(self):
        with pytest.raises(DomainError):
            primitive_normal(nvec(2, 4), nvec(1, 2))

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            primitive_normal(nvec(0, 0), nvec(1, 0))


class TestVectorsAndChains:
    def test_pairing_requires_opposite_sides(self):
        with pytest.raises(ValueError):
            pair(nvec(1, 0), nvec(0, 1))
        with pytest.raises(ValueError):
            pair(mvec(1, 0), mvec(0, 1))
        assert pair(nvec(2, 3), mvec(5, 1)) == 13

    def test_no_mixed_arithmetic(self):
        with pytest.raises(ValueError):
            nvec(1, 0) + mvec(0, 1)

    def test_derived_vectors_match_constructed_ones(self):
        # arithmetic skips the side check but builds the same values
        for make, side in ((nvec, "N"), (mvec, "M")):
            u, v = make(-4, 6), make(3, 1)
            for got, xy in (
                (u + v, (-1, 7)), (u - v, (-7, 5)), (-u, (4, -6)),
                (u.scaled(3), (-12, 18)), (u.primitive(), (-2, 3)),
            ):
                want = LatticeVector(*xy, side)
                assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        with pytest.raises(ValueError):
            LatticeVector(1, 2, "X")

    def test_primitive(self):
        assert nvec(-4, 6).primitive().xy == (-2, 3)
        with pytest.raises(DomainError):
            nvec(0, 0).primitive()

    def test_chain_role_floors(self):
        with pytest.raises(ValueError):
            CoeffChain((2, 1, 2), ROLE_A)
        with pytest.raises(ValueError):
            CoeffChain((1, 0, 1), ROLE_K)
        assert CoeffChain((1, 2, 1), ROLE_K).reversed().coeffs == (1, 2, 1)
        assert CoeffChain((3, 2), ROLE_A).total == 5
