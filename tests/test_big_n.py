"""Properties far beyond the n <= 60 sweep: a-chains of length 2-8 with
entries 2-1000, so n reaches about 10^24, r about 8,000, and a singularity
has at most Catalan(7) = 429 components."""

import json
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from cqs.invariants import component_table
from cqs.lattice import nvec
from cqs.model import InputCone, NormalForm, mat_det, mat_vec, normalize_cone
from cqs.report import build_document, to_json

from test_report_cli import wrap_big_ints

BIG = settings(max_examples=12, deadline=None)


def nq_of_a_chain(a):
    """(n, q) with n/(n-q) = [a_1, ..., a_m] = a_1 - 1/(a_2 - ...)."""
    n, d = 1, 0
    for ai in reversed(a):
        n, d = ai * n - d, n
    return n, n - d


@st.composite
def big_singularities(draw):
    a = draw(st.lists(st.integers(2, 1000), min_size=2, max_size=8))
    nf = NormalForm.from_nq(*nq_of_a_chain(a))
    assert nf.a_chain.coeffs == tuple(a)
    return nf


@st.composite
def big_unimodular(draw):
    """A matrix of GL_2(Z) with entries up to about 2^64, either determinant."""
    a = draw(st.integers(1, 2**64))
    c = draw(st.integers(1, 2**64))
    assume(gcd(a, c) == 1)
    d = pow(a, -1, c)
    b = (a * d - 1) // c
    g = ((a, b), (c, d))
    if draw(st.booleans()):
        g = (g[0], (-c, -d))
    assert mat_det(g) in (1, -1)
    return g


def moved(nf, g):
    """The cone <g(1,0), g(-q,n)>."""
    x1, y1 = mat_vec(g, (1, 0))
    x2, y2 = mat_vec(g, (-nf.q, nf.n))
    return InputCone(nvec(x1, y1), nvec(x2, y2)), {"cone": [[x1, y1], [x2, y2]]}


class TestBigN:
    @BIG
    @given(nf=big_singularities())
    def test_component_table(self, nf):
        # component_table asserts every cross-identity while it builds
        report = component_table(nf)
        assert 1 <= len(report.components) <= 429
        for c in report.components:
            assert (c.milnor_toric, c.dim_toric) == (c.milnor_cf, c.dim_cf)
        assert sum(c.is_artin for c in report.components) == 1

    @BIG
    @given(nf=big_singularities())
    def test_duality(self, nf):
        dual = NormalForm.from_nq(nf.n, nf.dual_q)
        assert dual.a_chain.coeffs == nf.a_chain.coeffs[::-1]
        ours, theirs = component_table(nf), component_table(dual)
        assert (sorted(c.chain.k[::-1] for c in ours.components)
                == sorted(c.chain.k for c in theirs.components))
        assert (sorted((c.milnor_toric, c.dim_toric) for c in ours.components)
                == sorted((c.milnor_toric, c.dim_toric) for c in theirs.components))

    @settings(max_examples=50, deadline=None)
    @given(nf=big_singularities(), g=big_unimodular())
    def test_normalize_moved_cone(self, nf, g):
        cone, _ = moved(nf, g)
        got = normalize_cone(cone)
        assert (got.n, got.q) == (nf.n, nf.q)
        assert mat_vec(got.transform, cone.g1.xy) == (1, 0)

    @settings(max_examples=8, deadline=None)
    @given(nf=big_singularities(), g=big_unimodular())
    def test_json_wraps_exactly_the_big_ints(self, nf, g):
        cone, cone_echo = moved(nf, g)
        for form, echo in [(nf, {"nq": [nf.n, nf.q]}), (normalize_cone(cone), cone_echo)]:
            doc = build_document(component_table(form), echo)
            assert json.loads(to_json(doc)) == wrap_big_ints(doc)
