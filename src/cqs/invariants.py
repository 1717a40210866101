"""Deformation invariants, each computed by two independent routes.

Milnor numbers and component dimensions come once from the fan geometry
(roof lengths over heights) and once from the continued-fraction data
(a-chain, k-chain, q-sequence). Any disagreement raises a ConsistencyError
carrying the offending chain, and the component table asserts every
cross-identity on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import KChain, admissible_chains
from .errors import ConsistencyError, DomainError, HypersurfaceError
from .fans import Fan, fan_from_chain, validate_presolution
from .lattice import det2
from .model import NormalForm, dim_t1


def milnor_toric(fan: Fan) -> int:
    """Second Betti number of the Milnor fiber: sum of l/h over cones, minus 1."""
    return fan.roof_sum() - 1


def _q_one_count(e: int, q_seq: tuple[int, ...]) -> int:
    # strict interior 2 < i < e-1, i.e. i in {3,...,e-2}
    return sum(1 for i in range(3, e - 1) if q_seq[i - 1] == 1)


def milnor_cf(nf: NormalForm, chain: KChain) -> int:
    """Milnor number from the chain data: dim T^1 - 3(e-3) + #{q_i = 1} + 2."""
    e = nf.e
    return dim_t1(nf) - 3 * (e - 3) + _q_one_count(e, chain.q_seq) + 2


def nu(nf: NormalForm) -> int:
    """Sum of det(v^{i-1}, v^{i+1}) over the interior rays of the minimal
    resolution; must equal the b-chain total."""
    vs = nf.vs
    total = sum(det2(vs[i - 1], vs[i + 1]) for i in range(1, len(vs) - 1))
    if total != nf.b_chain.total:
        raise ConsistencyError("nu != sum(b_i)", nu=total, b_sum=nf.b_chain.total)
    return total


def h1_theta(nf: NormalForm) -> int:
    """h^1 of the tangent sheaf of the minimal resolution: sum(b_i - 1)."""
    return nu(nf) - nf.r


def dim_toric(nf: NormalForm, fan: Fan) -> int:
    """Component dimension from the fan: nu - 3r + 2*sum(l/h) - 2."""
    if nf.e <= 3:
        raise HypersurfaceError()
    return _dim_toric(nu(nf), nf.r, fan)


def _dim_toric(nu_val: int, r: int, fan: Fan) -> int:
    return nu_val - 3 * r + 2 * fan.roof_sum() - 2


def dim_cf(nf: NormalForm, chain: KChain) -> int:
    """Component dimension from the chain: #{q_i = 1} + sum(a_i - k_i)."""
    if nf.e <= 3:
        raise HypersurfaceError()
    slack = sum(ai - ki for ai, ki in zip(nf.a_chain, chain.k))
    return _q_one_count(nf.e, chain.q_seq) + slack


def dim_difference(fan1: Fan, fan2: Fan) -> int:
    """Dimension difference of two components of the same singularity,
    read off the fans alone: 2*sum_1(l/h) - 2*sum_2(l/h)."""
    if (fan1.rays[0], fan1.rays[-1]) != (fan2.rays[0], fan2.rays[-1]):
        raise DomainError("fans subdivide different cones")
    return 2 * (fan1.roof_sum() - fan2.roof_sum())


@dataclass(frozen=True)
class ComponentReport:
    """One reduced versal base component."""

    chain: KChain
    fan: Fan
    milnor_toric: int
    milnor_cf: int
    dim_toric: int
    dim_cf: int
    is_artin: bool


@dataclass(frozen=True)
class SingularityReport:
    nf: NormalForm
    r: int
    nu: int
    dim_t1: int
    h1_theta: int
    components: tuple[ComponentReport, ...]
    warnings: tuple[str, ...]


def known_divergence_warnings(a_chain: tuple[int, ...]) -> list[str]:
    """Notes on chains commonly quoted for an a-chain that fail the
    admissibility test; surfaced instead of silently corrected."""
    if a_chain == (3, 3, 2, 2):
        return [
            "the chain [2,3,1,2] sometimes quoted for this singularity is "
            "inadmissible (its continued fraction evaluates to 1, not 0); "
            "[1,3,1,2] is the admissible chain with matching invariants "
            "(milnor 2, dimension 4)"
        ]
    if a_chain == (2, 2, 3, 3):
        return [
            "the chain [2,1,3,2] (mirror of [2,3,1,2]) sometimes quoted for "
            "this singularity is inadmissible; [2,1,3,1] is the admissible "
            "chain with matching invariants (milnor 2, dimension 4)"
        ]
    return []


def component_table(nf: NormalForm) -> SingularityReport:
    """All components of the reduced versal base, every identity asserted.

    One ComponentReport per admissible chain, lexicographic. Raises
    HypersurfaceError for e <= 3 and ConsistencyError on any formula
    mismatch.
    """
    if nf.e <= 3:
        raise HypersurfaceError()
    r = nf.r
    nu_val = nu(nf)
    h1 = nu_val - r
    t1 = dim_t1(nf)
    warnings = known_divergence_warnings(nf.a_chain.coeffs)

    components = []
    for chain in admissible_chains(nf.a_chain):
        fan = fan_from_chain(nf, chain)
        report = validate_presolution(fan)
        if not report.ok:
            raise ConsistencyError(
                "chain fan fails P-resolution validation",
                chain=chain, failed=report.failed, detail=report.detail,
            )

        m_t, m_c = milnor_toric(fan), milnor_cf(nf, chain)
        if m_t != m_c:
            raise ConsistencyError(
                "milnor numbers disagree", chain=chain, toric=m_t, cf=m_c
            )
        d_t, d_c = _dim_toric(nu_val, r, fan), dim_cf(nf, chain)
        if d_t != d_c:
            raise ConsistencyError(
                "dimensions disagree", chain=chain, toric=d_t, cf=d_c
            )
        if d_t != h1 + 2 * m_t - 2 * r:
            raise ConsistencyError(
                "dim != h1(Theta) + 2*b2 - 2r", chain=chain,
                dim=d_t, h1=h1, b2=m_t, r=r,
            )
        slack = sum(ai - ki for ai, ki in zip(nf.a_chain, chain.k))
        if _q_one_count(nf.e, chain.q_seq) != nu_val - 3 * r - 2 + slack:
            raise ConsistencyError(
                "q-count bridge identity fails", chain=chain,
                count=_q_one_count(nf.e, chain.q_seq),
                expected=nu_val - 3 * r - 2 + slack,
            )
        if len(fan.cones) != sum(1 for ai, ki in zip(nf.a_chain, chain.k) if ai > ki):
            raise ConsistencyError("cone count != #{a_i > k_i}", chain=chain)
        components.append(
            ComponentReport(
                chain=chain, fan=fan,
                milnor_toric=m_t, milnor_cf=m_c,
                dim_toric=d_t, dim_cf=d_c,
                is_artin=chain.is_rdp,
            )
        )

    artin = [c for c in components if c.is_artin]
    if len(artin) != 1:
        raise ConsistencyError("expected exactly one RDP component", found=len(artin))
    if any(c.dim_toric > artin[0].dim_toric for c in components):
        raise ConsistencyError(
            "a component exceeds the RDP component's dimension",
            artin_dim=artin[0].dim_toric,
            dims=[c.dim_toric for c in components],
        )
    return SingularityReport(
        nf=nf, r=r, nu=nu_val, dim_t1=t1, h1_theta=h1,
        components=tuple(components), warnings=tuple(warnings),
    )
