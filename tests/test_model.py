"""Normal form, generator recursions, cone classification, dim T^1."""

from math import gcd

import pytest
from hypothesis import given, strategies as st

from cqs.errors import DomainError, HypersurfaceError, ResourceLimitError, SmoothConeError
from cqs.lattice import det2, nvec
from cqs.model import (
    DUVAL_A,
    GENERAL,
    MAX_CHAIN_LENGTH,
    SMOOTH,
    T_SINGULARITY,
    InputCone,
    NormalForm,
    classify_cone,
    dim_t1,
    mat_det,
    mat_mul,
    mat_vec,
    normalize_cone,
    v_rays,
    w_generators,
)


def is_t_parametric(n, q):
    """Independent oracle for the T-property: Y(n,q) with n = d*m^2 and
    q = d*m*a - 1 for some d >= 1, m >= 1, 1 <= a <= m coprime to m."""
    m = 1
    while m * m <= n:
        if n % (m * m) == 0:
            d = n // (m * m)
            for a in range(1, m + 1):
                if gcd(a, m) == 1 and d * m * a - 1 == q:
                    return True
        m += 1
    return False


@st.composite
def unimodular(draw):
    m = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(-3, 3))
        f = draw(st.sampled_from([((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, -1), (1, 0))]))
        m = mat_mul(f, m)
    return m


class TestNormalizeCone:
    def test_example_cone(self):
        nf = normalize_cone(InputCone.from_ints(-2, 3, 4, 3))
        assert (nf.n, nf.q) == (18, 11)
        assert nf.a_chain.coeffs == (3, 3, 2, 2)
        # oracle: the transform actually maps the generators
        assert mat_vec(nf.transform, (-2, 3)) == (1, 0)
        assert mat_vec(nf.transform, (4, 3)) == (-11, 18)
        assert mat_det(nf.transform) in (1, -1)

    def test_already_normal(self):
        nf = normalize_cone(InputCone.from_ints(1, 0, -11, 18))
        assert (nf.n, nf.q) == (18, 11)
        assert nf.transform == ((1, 0), (0, 1))

    def test_reversed_order_gives_dual(self):
        nf = normalize_cone(InputCone.from_ints(4, 3, -2, 3))
        assert (nf.n, nf.q) == (18, 5)
        assert (5 * 11) % 18 == 1

    def test_smooth_cone(self):
        with pytest.raises(SmoothConeError):
            normalize_cone(InputCone.from_ints(1, 0, 0, 1))

    def test_bad_generators(self):
        with pytest.raises(DomainError):
            InputCone.from_ints(2, 4, 0, 1)
        with pytest.raises(DomainError):
            InputCone.from_ints(1, 2, -1, -2)

    @given(
        x1=st.integers(-15, 15), y1=st.integers(-15, 15),
        x2=st.integers(-15, 15), y2=st.integers(-15, 15),
    )
    def test_transform_contract(self, x1, y1, x2, y2):
        if gcd(x1, y1) != 1 or gcd(x2, y2) != 1 or x1 * y2 - y1 * x2 == 0:
            return
        cone = InputCone.from_ints(x1, y1, x2, y2)
        if abs(det2(cone.g1, cone.g2)) == 1:
            return
        nf = normalize_cone(cone)
        assert mat_vec(nf.transform, (x1, y1)) == (1, 0)
        assert mat_vec(nf.transform, (x2, y2)) == (-nf.q, nf.n)
        assert mat_det(nf.transform) in (1, -1)
        assert 0 < nf.q < nf.n and gcd(nf.n, nf.q) == 1
        assert (nf.q * nf.dual_q) % nf.n == 1

    def test_duality_reverses_chains(self):
        # every coprime pair up to 100
        for n in range(2, 101):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                nf = NormalForm.from_nq(n, q)
                rev = normalize_cone(InputCone.from_ints(-q, n, 1, 0))
                assert (rev.n, rev.q) == (n, nf.dual_q)
                assert rev.a_chain.coeffs == nf.a_chain.coeffs[::-1]
                assert rev.b_chain.coeffs == nf.b_chain.coeffs[::-1]

    def test_chain_length_bound(self):
        # Y(n,1) has an a-chain of n - 1 twos, Y(n,n-1) a b-chain of n - 1 twos
        m = MAX_CHAIN_LENGTH
        assert NormalForm.from_nq(m + 1, 1).e == m + 2
        assert NormalForm.from_nq(m + 1, m).r == m
        with pytest.raises(ResourceLimitError):
            NormalForm.from_nq(m + 2, 1)
        with pytest.raises(ResourceLimitError):
            NormalForm.from_nq(m + 2, m + 1)


class TestGenerators:
    def test_w_endpoints_y18_11(self):
        ws = w_generators(NormalForm.from_nq(18, 11))
        assert ws[0].xy == (0, 1)
        assert ws[-1].xy == (18, 11)
        assert len(ws) == 6

    def test_w_recursion_identity(self):
        for n, q in [(18, 11), (7, 3), (25, 7), (30, 11)]:
            nf = NormalForm.from_nq(n, q)
            ws = w_generators(nf)
            for i, a in enumerate(nf.a_chain):
                assert ws[i] + ws[i + 2] == ws[i + 1].scaled(a)

    def test_w_y4_1(self):
        ws = w_generators(NormalForm.from_nq(4, 1))
        assert [w.xy for w in ws] == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)]

    def test_v_rays_y18_11(self):
        vs = v_rays(NormalForm.from_nq(18, 11))
        assert [v.xy for v in vs] == [(1, 0), (0, 1), (-1, 2), (-3, 5), (-11, 18)]

    def test_v_rays_a1(self):
        vs = v_rays(NormalForm.from_nq(2, 1))
        assert [v.xy for v in vs] == [(1, 0), (0, 1), (-1, 2)]

    def test_v_adjacent_unimodular(self):
        for n, q in [(18, 11), (13, 5), (40, 17)]:
            vs = v_rays(NormalForm.from_nq(n, q))
            assert all(det2(a, b) == 1 for a, b in zip(vs, vs[1:]))

    def test_v_skip_det_is_b(self):
        # det(v^{i-1}, v^{i+1}) = b_i, up to n = 60
        for n in range(2, 61):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                nf = NormalForm.from_nq(n, q)
                vs = v_rays(nf)
                for i, b in enumerate(nf.b_chain, start=1):
                    assert det2(vs[i - 1], vs[i + 1]) == b


class TestClassify:
    def test_wahl_quarter_point(self):
        roof = classify_cone(nvec(1, 0), nvec(-1, 4))
        assert (roof.tag, roof.h, roof.l, roof.label()) == (T_SINGULARITY, 2, 2, "T(h=2,l=2)")
        assert roof.is_t_like

    def test_a1_segment(self):
        roof = classify_cone(nvec(0, 1), nvec(2, 1))
        assert (roof.tag, roof.label()) == (DUVAL_A, "A_1")

    def test_y5_2_general(self):
        roof = classify_cone(nvec(1, 0), nvec(-2, 5))
        assert (roof.tag, roof.is_t_like, roof.label()) == (GENERAL, False, "general")
        assert not is_t_parametric(5, 2)

    def test_smooth(self):
        assert classify_cone(nvec(1, 0), nvec(0, 1)).tag == SMOOTH

    def test_det_is_l_times_h(self):
        for n in range(2, 40):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cls = classify_cone(nvec(1, 0), nvec(-q, n))
                assert cls.l * cls.h == n

    def test_t_matches_parametric_oracle(self):
        for n in range(2, 41):
            for q in range(1, n):
                if gcd(n, q) != 1:
                    continue
                cls = classify_cone(nvec(1, 0), nvec(-q, n))
                assert cls.is_t_like == is_t_parametric(n, q), (n, q)

    @given(m=unimodular(), n=st.integers(2, 30), q=st.integers(1, 29))
    def test_invariant_under_transform(self, m, n, q):
        if q >= n or gcd(n, q) != 1:
            return
        u, v = nvec(1, 0), nvec(-q, n)
        before = classify_cone(u, v)
        tu = nvec(*mat_vec(m, u.xy))
        tv = nvec(*mat_vec(m, v.xy))
        after = classify_cone(tu, tv)
        assert (before.tag, before.h, before.l) == (after.tag, after.h, after.l)

    def test_non_primitive_rejected(self):
        with pytest.raises(DomainError):
            classify_cone(nvec(2, 0), nvec(0, 1))


class TestDimT1:
    def test_y18_11(self):
        assert dim_t1(NormalForm.from_nq(18, 11)) == 8

    def test_cone_over_quartic_curve(self):
        assert dim_t1(NormalForm.from_nq(4, 1)) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_hypersurface_rejected(self, n):
        with pytest.raises(HypersurfaceError, match="versal base irreducible"):
            dim_t1(NormalForm.from_nq(n, n - 1))
