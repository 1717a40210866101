"""Zero continued fractions: the q-recursion route against the rational
evaluator, enumeration completeness, admissible subsets."""

import io
import time
from functools import lru_cache
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from cqs.chains import (
    MAX_ZERO_CHAINS,
    KChain,
    _pocket_ceiling,
    _search,
    admissible_chains,
    is_zero_chain,
    q_sequence,
    rdp_chain,
    zero_chains,
)
from cqs.cli import main
from cqs.errors import DomainError, ResourceLimitError
from cqs.lattice import ROLE_A, CoeffChain, cf_eval
from cqs.model import NormalForm

CATALAN = {
    2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429, 9: 1430,
    10: 4862, 11: 16796, 12: 58786,
}

# two {2,3} a-chains of the benchmark's wide catalogue, 96 admissible chains each
LONG_A_CHAINS = (
    "23233322322222223223233323232223232222323222222322222332232222",
    "23223222223222232332222222323323232222232223232222322232322322222333223222222222",
)


@lru_cache(maxsize=None)
def zero_chain_coeffs(m):
    return tuple(c.k for c in zero_chains(m))


def capped(m, caps):
    """Post-filtering: the zero chains of length m bounded by caps."""
    return [k for k in zero_chain_coeffs(m) if all(ki <= ci for ki, ci in zip(k, caps))]


@st.composite
def cap_vectors(draw):
    """Length m in 2..10, caps in 1..m-1."""
    m = draw(st.integers(2, 10))
    return tuple(draw(st.lists(st.integers(1, m - 1), min_size=m, max_size=m)))


def zero_by_rational_route(k):
    """The definition itself: evaluation is defined and lands on 0, and the
    q-values stay positive in the interior."""
    value = cf_eval(k)
    qs = q_sequence(k)
    return value == 0 and all(qi > 0 for qi in qs[1:-1])


class TestQSequence:
    def test_rdp_pattern(self):
        assert q_sequence((1, 2, 2, 1)) == (0, 1, 1, 1, 1, 0)

    def test_admissible_example(self):
        assert q_sequence((3, 1, 2, 2)) == (0, 1, 3, 2, 1, 0)

    def test_inadmissible_printed_chain(self):
        # the often-quoted (2,3,1,2) fails: q_6 = 1, not 0
        assert q_sequence((2, 3, 1, 2)) == (0, 1, 2, 5, 3, 1)
        assert cf_eval((2, 3, 1, 2)) == 1

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            q_sequence(())


class TestIsZeroChain:
    def test_examples(self):
        assert is_zero_chain((1, 2, 2, 1))
        assert is_zero_chain((1, 1))
        assert not is_zero_chain((2, 3, 1, 2))

    def test_agrees_with_rational_route_on_enumerated(self):
        for m in range(2, 10):
            for chain in zero_chains(m):
                assert zero_by_rational_route(chain.k)

    def test_agrees_with_rational_route_on_box(self):
        # every candidate in a box comfortably larger than the search caps
        for m in range(2, 6):
            for k in product(range(1, 2 * m + 1), repeat=m):
                assert is_zero_chain(k) == zero_by_rational_route(k), k

    def test_entries_below_one_rejected(self):
        with pytest.raises(DomainError):
            is_zero_chain((1, 0, 1))


class TestZeroChains:
    def test_length_two(self):
        assert [c.k for c in zero_chains(2)] == [(1, 1)]

    def test_length_one_empty(self):
        assert zero_chains(1) == ()

    def test_length_four_complete_set(self):
        expected = {(1, 2, 2, 1), (1, 3, 1, 2), (2, 1, 3, 1), (2, 2, 1, 3), (3, 1, 2, 2)}
        assert {c.k for c in zero_chains(4)} == expected

    def test_lexicographic_order(self):
        for m in (4, 6):
            ks = [c.k for c in zero_chains(m)]
            assert ks == sorted(ks)

    @pytest.mark.parametrize("m", sorted(CATALAN))
    def test_catalan_census(self, m):
        assert len(zero_chains(m)) == CATALAN[m]

    def test_box_oracle_completeness(self):
        # brute force over a larger box finds nothing the search missed
        for m in range(2, 6):
            brute = {
                k for k in product(range(1, 2 * m + 1), repeat=m)
                if zero_by_rational_route(k)
            }
            assert {c.k for c in zero_chains(m)} == brute

    def test_coefficient_bound(self):
        # entries of a length-m zero chain stay below m
        for m in range(2, 8):
            for chain in zero_chains(m):
                assert max(chain.k) <= m - 1

    @pytest.mark.parametrize("m", [15, 10**9])
    def test_cli_refuses_oversized_length(self, m):
        # Catalan(14) chains would not fit in memory: refused before building any
        assert comb(28, 14) // 15 > MAX_ZERO_CHAINS >= comb(26, 13) // 14
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = main(["chains", "--len", str(m), "--count-only"], out, err)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    def test_q_values_positive_and_closed(self):
        for chain in zero_chains(6):
            qs = chain.q_seq
            assert qs[0] == 0 and qs[1] == 1 and qs[-1] == 0
            assert all(v > 0 for v in qs[1:-1])


class TestAdmissibleChains:
    def test_example_a_chain(self):
        ks = admissible_chains(CoeffChain((3, 3, 2, 2), ROLE_A))
        assert [c.k for c in ks] == [(1, 2, 2, 1), (1, 3, 1, 2), (3, 1, 2, 2)]

    def test_all_twos_caps(self):
        # length 3 also admits (2,1,2), the one-cone component of Y(4,1);
        # every other length leaves only the RDP chain
        assert [c.k for c in admissible_chains((2, 2, 2))] == [(1, 2, 1), (2, 1, 2)]
        for m in (2, 4, 5, 6, 7, 8):
            ks = admissible_chains((2,) * m)
            assert [c.k for c in ks] == [rdp_chain(m).k]

    def test_rdp_always_member(self):
        for n in range(4, 61, 3):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                nf = NormalForm.from_nq(n, q)
                ks = admissible_chains(nf.a_chain)
                assert rdp_chain(nf.e - 2).k in {c.k for c in ks}

    def test_subset_of_zero_chains(self):
        a = (3, 2, 4, 2, 3)
        pool = {c.k for c in zero_chains(len(a))}
        for c in admissible_chains(a):
            assert c.k in pool
            assert all(ki <= ai for ki, ai in zip(c.k, a))

    def test_matches_post_filtering(self):
        for a in [(3, 3, 2, 2), (2, 4, 3, 2), (5, 2, 2, 3, 2), (3, 2, 2, 2, 2, 3)]:
            filtered = {
                c.k for c in zero_chains(len(a))
                if all(ki <= ai for ki, ai in zip(c.k, a))
            }
            assert {c.k for c in admissible_chains(a)} == filtered

    def test_reversal_duality(self):
        for n in range(4, 51):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                nf = NormalForm.from_nq(n, q)
                forward = {c.k for c in admissible_chains(nf.a_chain)}
                backward = {c.k for c in admissible_chains(nf.a_chain.reversed())}
                assert backward == {k[::-1] for k in forward}

    @settings(deadline=None)
    @given(caps=cap_vectors())
    def test_search_matches_post_filtering(self, caps):
        # the capped search and the triangulation recursion are independent
        assert list(_search(caps)) == capped(len(caps), caps)

    def test_q_within_pocket_ceiling(self):
        for n in range(4, 61):
            for q in range(1, n - 1):
                if gcd(n, q) != 1:
                    continue
                a = NormalForm.from_nq(n, q).a_chain
                m = len(a)
                ceil = _pocket_ceiling(tuple(min(ai, m - 1) for ai in a))
                for chain in admissible_chains(a):
                    qs = chain.q_seq  # qs[v] = Q_v for v = 0..m+1
                    assert all(qs[v] <= ceil[v] for v in range(1, m + 1)), (n, q, chain)

    @pytest.mark.parametrize("digits", LONG_A_CHAINS, ids=lambda d: f"len{len(d)}")
    def test_long_catalogue_chains(self, digits):
        a = tuple(int(c) for c in digits)
        ks = [c.k for c in admissible_chains(a)]
        assert len(ks) == 96
        assert ks == sorted(set(ks))
        assert all(len(k) == len(a) and all(ki <= ai for ki, ai in zip(k, a)) for k in ks)
        assert rdp_chain(len(a)).k in ks

    def test_entry_floor_enforced(self):
        with pytest.raises(DomainError):
            admissible_chains((3, 1, 2))


class TestKChain:
    def test_from_coeffs_validates(self):
        with pytest.raises(DomainError):
            KChain.from_coeffs((2, 3, 1, 2))
        chain = KChain.from_coeffs((1, 3, 1, 2))
        assert chain.q_seq == (0, 1, 1, 2, 1, 0)

    def test_rdp_detection(self):
        assert rdp_chain(2).k == (1, 1)
        assert rdp_chain(5).k == (1, 2, 2, 2, 1)
        assert rdp_chain(5).is_rdp
        assert not KChain.from_coeffs((3, 1, 2, 2)).is_rdp

    def test_reversed(self):
        chain = KChain.from_coeffs((3, 1, 2, 2))
        assert chain.reversed().k == (2, 2, 1, 3)
        assert chain.reversed().q_seq == chain.q_seq[::-1]
