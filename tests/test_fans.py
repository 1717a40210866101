"""Fan constructions: minimal resolution, chain fans, RDP fan, validation,
and the convex-path P-resolution oracle."""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cqs.chains import KChain, admissible_chains, rdp_chain
from cqs.errors import DomainError
from cqs.fans import (
    brute_force_presolutions,
    dominating_interior_rays,
    fan_from_chain,
    fan_from_rays,
    hull_boundary_lattice_points,
    minimal_resolution_fan,
    rdp_fan,
    validate_presolution,
)
from cqs.lattice import lattice_length, pair
from cqs.model import (
    DUVAL_A,
    SMOOTH,
    NormalForm,
    classify_cone,
    cone_geometry,
    v_rays,
    w_generators,
)


def sweep_pairs(max_n, step=1):
    for n in range(3, max_n + 1, step):
        for q in range(1, n - 1):
            if gcd(n, q) == 1:
                yield n, q


class TestMinimalResolution:
    def test_y18_11(self):
        fan = minimal_resolution_fan(NormalForm.from_nq(18, 11))
        assert len(fan.rays) == 5
        assert len(fan.cones) == 4
        assert all(c.roof.tag == SMOOTH for c in fan.cones)

    def test_a1(self):
        fan = minimal_resolution_fan(NormalForm.from_nq(2, 1))
        assert [r.xy for r in fan.rays] == [(1, 0), (0, 1), (-1, 2)]

    def test_hull_boundary_oracle(self):
        # ray set equals the lattice points on the hull chain facing the origin
        for n, q in sweep_pairs(40):
            nf = NormalForm.from_nq(n, q)
            recursion = [v.xy for v in v_rays(nf)]
            hull = [v.xy for v in hull_boundary_lattice_points(nf)]
            assert recursion == hull, (n, q)


class TestFanFromChain:
    def test_single_cone_fan(self):
        nf = NormalForm.from_nq(18, 11)
        fan = fan_from_chain(nf, KChain.from_coeffs((3, 1, 2, 2)))
        assert [r.xy for r in fan.rays] == [(1, 0), (-11, 18)]
        (cone,) = fan.cones
        assert (cone.roof.h, cone.roof.l) == (3, 6)
        assert [c.roof.w.xy for c in fan.cones] == [(3, 2)]  # w^3
        assert lattice_length(cone.left.xy, cone.right.xy) == 6

    def test_one_interior_ray(self):
        nf = NormalForm.from_nq(18, 11)
        fan = fan_from_chain(nf, KChain.from_coeffs((1, 3, 1, 2)))
        assert [r.xy for r in fan.rays] == [(1, 0), (-1, 2), (-11, 18)]
        assert [(c.roof.h, c.roof.l) for c in fan.cones] == [(1, 2), (2, 2)]
        assert [c.roof.w.xy for c in fan.cones] == [(1, 1), (8, 5)]  # w^2, w^4

    def test_rdp_chain_fan(self):
        nf = NormalForm.from_nq(18, 11)
        fan = fan_from_chain(nf, KChain.from_coeffs((1, 2, 2, 1)))
        assert [r.xy for r in fan.rays] == [(1, 0), (-1, 2), (-3, 5), (-11, 18)]
        assert sorted((c.roof.l, c.roof.h) for c in fan.cones) == [(1, 1), (1, 1), (2, 1)]
        assert [c.roof.w.xy for c in fan.cones] == [(1, 1), (3, 2), (13, 8)]  # w^2, w^3, w^5

    def test_interior_rays_in_input_coordinates(self):
        # the worked cone: interior rays land on (0,1) and (1,1)
        from cqs.model import InputCone, normalize_cone

        nf = normalize_cone(InputCone.from_ints(-2, 3, 4, 3))
        fan = fan_from_chain(nf, KChain.from_coeffs((1, 2, 2, 1)))
        interior = {nf.to_input_ray(r).xy for r in fan.interior_rays()}
        assert interior == {(0, 1), (1, 1)}
        fan2 = fan_from_chain(nf, KChain.from_coeffs((1, 3, 1, 2)))
        assert {nf.to_input_ray(r).xy for r in fan2.interior_rays()} == {(0, 1)}

    def test_cone_count_is_strict_slack(self):
        for n, q in sweep_pairs(30):
            nf = NormalForm.from_nq(n, q)
            for chain in admissible_chains(nf.a_chain):
                fan = fan_from_chain(nf, chain)
                strict = sum(1 for a, k in zip(nf.a_chain, chain.k) if a > k)
                assert len(fan.cones) == strict

    def test_roofs_match_intrinsic_geometry(self):
        # the chain-predicted roof equals what the rays themselves say
        for n, q in sweep_pairs(30):
            nf = NormalForm.from_nq(n, q)
            ws = {w.xy for w in w_generators(nf)}
            for chain in admissible_chains(nf.a_chain):
                fan = fan_from_chain(nf, chain)
                for c in fan.cones:
                    assert c.roof == cone_geometry(c.left, c.right), (n, q, chain)
                    assert c.roof == classify_cone(c.left, c.right), (n, q, chain)
                    assert c.roof.w.xy in ws
                    assert pair(c.left, c.roof.w) == c.roof.h

    def test_roof_continuity(self):
        for n, q in sweep_pairs(30):
            nf = NormalForm.from_nq(n, q)
            for chain in admissible_chains(nf.a_chain):
                fan = fan_from_chain(nf, chain)
                for ca, cb in zip(fan.cones, fan.cones[1:]):
                    assert ca.right == cb.left

    def test_roof_endpoints_on_generators(self):
        # the roof at height h meets both rays at their primitive generators
        for n, q in sweep_pairs(25):
            nf = NormalForm.from_nq(n, q)
            for chain in admissible_chains(nf.a_chain):
                for c in fan_from_chain(nf, chain).cones:
                    assert pair(c.left, c.roof.w) == c.roof.h
                    assert pair(c.right, c.roof.w) == c.roof.h
                    assert lattice_length(c.left.xy, c.right.xy) == c.roof.l

    def test_chain_cap_enforced(self):
        nf = NormalForm.from_nq(18, 11)
        with pytest.raises(DomainError):
            fan_from_chain(nf, KChain.from_coeffs((2, 2, 1, 3)))  # k_5 = 3 > a_5 = 2
        with pytest.raises(DomainError):
            fan_from_chain(nf, KChain.from_coeffs((1, 1)))  # wrong length


@st.composite
def singularities(draw, min_n=3, max_n=10**4, max_e=30):
    """Y(n,q) with min_n <= n <= max_n, e >= 4 (q <= n - 2) and e <= max_e."""
    n = draw(st.integers(min_n, max_n))
    q = draw(st.integers(1, n - 2))
    assume(gcd(n, q) == 1)
    nf = NormalForm.from_nq(n, q)
    assume(nf.e <= max_e)
    return nf


class TestChainFanProperties:
    @settings(deadline=None)
    @given(nf=singularities())
    def test_integer_roofs_on_generators(self, nf):
        for chain in admissible_chains(nf.a_chain):
            fan = fan_from_chain(nf, chain)
            for c in fan.cones:
                assert pair(c.left, c.roof.w) == pair(c.right, c.roof.w) == c.roof.h
                assert c.roof == cone_geometry(c.left, c.right)
                assert c.roof == classify_cone(c.left, c.right)
            assert type(fan.roof_sum()) is int
            strict = sum(1 for a, k in zip(nf.a_chain, chain.k) if a > k)
            assert len(fan.cones) == strict


class TestRdpFan:
    def test_equals_hull_vertex_construction(self):
        # rdp_fan asserts the agreement internally; run it across a range
        for n, q in sweep_pairs(40):
            fan = rdp_fan(NormalForm.from_nq(n, q))
            assert all(c.roof.h == 1 for c in fan.cones)
            assert all(c.roof.tag in (SMOOTH, DUVAL_A) for c in fan.cones)

    def test_hypersurface_rejected(self):
        with pytest.raises(DomainError):
            rdp_fan(NormalForm.from_nq(5, 4))


class TestValidatePresolution:
    def test_rdp_passes(self):
        fan = rdp_fan(NormalForm.from_nq(18, 11))
        assert validate_presolution(fan).ok

    def test_minimal_resolution_fails_crepant(self):
        fan = minimal_resolution_fan(NormalForm.from_nq(18, 11))
        report = validate_presolution(fan)
        assert not report.ok
        assert report.failed == "roof-convexity"
        assert "collinear" in report.detail

    def test_non_t_single_cone_fails(self):
        nf = NormalForm.from_nq(5, 2)
        report = validate_presolution(fan_from_rays(nf.sigma))
        assert (report.ok, report.failed) == (False, "t-test")

    def test_reflex_path_fails(self):
        # subdividing a smooth cone along an interior hull ray bends the
        # roof path the wrong way
        from cqs.lattice import nvec

        fan = fan_from_rays([nvec(1, 0), nvec(1, 1), nvec(0, 1)])
        report = validate_presolution(fan)
        assert not report.ok
        assert report.failed == "roof-convexity"

    def test_minimal_passes_iff_no_minus_two_curve(self):
        for n, q in sweep_pairs(25):
            nf = NormalForm.from_nq(n, q)
            ok = validate_presolution(minimal_resolution_fan(nf)).ok
            assert ok == all(b >= 3 for b in nf.b_chain), (n, q)


class TestBruteForce:
    def test_y18_11_finds_exactly_three(self):
        fans = brute_force_presolutions(NormalForm.from_nq(18, 11))
        assert len(fans) == 3

    def test_nonempty_everywhere(self):
        # the RDP fan always passes, so the result is never empty
        for n, q in sweep_pairs(14):
            assert brute_force_presolutions(NormalForm.from_nq(n, q))

    def test_matches_chain_enumeration(self):
        for n, q in sweep_pairs(14):
            nf = NormalForm.from_nq(n, q)
            brute = {f.ray_set() for f in brute_force_presolutions(nf)}
            chains = {
                fan_from_chain(nf, c).ray_set() for c in admissible_chains(nf.a_chain)
            }
            assert brute == chains, (n, q)

    def test_beyond_twenty_rays(self):
        # 2^R ray subsets would be past 10^6 here; the path search is not
        nf = NormalForm.from_nq(97, 31)
        assert len(dominating_interior_rays(nf)) > 20
        brute = [f.ray_set() for f in brute_force_presolutions(nf)]
        chains = {fan_from_chain(nf, c).ray_set() for c in admissible_chains(nf.a_chain)}
        assert len(brute) == len(set(brute))
        assert set(brute) == chains

    @settings(deadline=None)
    @given(nf=singularities(min_n=21, max_n=200))
    def test_matches_chain_fans_beyond_n_20(self, nf):
        fans = brute_force_presolutions(nf)
        assert all(validate_presolution(f).ok for f in fans)
        chains = {fan_from_chain(nf, c).ray_set() for c in admissible_chains(nf.a_chain)}
        assert {f.ray_set() for f in fans} == chains


class TestFanFromRays:
    def test_rejects_disorder(self):
        from cqs.lattice import nvec

        with pytest.raises(DomainError):
            fan_from_rays([nvec(0, 1), nvec(1, 0)])
        with pytest.raises(DomainError):
            fan_from_rays([nvec(1, 0)])
