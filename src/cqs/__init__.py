"""Exact-arithmetic toolkit for two-dimensional cyclic quotient singularities.

Enumerates the P-resolutions of Y(n,q) as toric fans and computes the Milnor
number and dimension of every reduced versal base component twice: once from
continued-fraction data, once from the fan geometry, asserting agreement.
"""

from .chains import KChain, admissible_chains, is_zero_chain, q_sequence, rdp_chain, zero_chains
from .errors import (
    ConsistencyError,
    CqsError,
    DomainError,
    HypersurfaceError,
    ResourceLimitError,
    SmoothConeError,
    ValidationError,
)
from .fans import (
    Fan,
    brute_force_presolutions,
    fan_from_chain,
    fan_from_rays,
    minimal_resolution_fan,
    rdp_fan,
    validate_presolution,
)
from .invariants import (
    ComponentReport,
    SingularityReport,
    component_table,
    dim_cf,
    dim_difference,
    dim_toric,
    h1_theta,
    milnor_cf,
    milnor_toric,
    nu,
)
from .lattice import (
    CoeffChain,
    LatticeVector,
    cf_eval,
    hj_expand,
    lattice_length,
    mvec,
    nvec,
    primitive_normal,
)
from .model import (
    InputCone,
    NormalForm,
    Roof,
    classify_cone,
    dim_t1,
    normalize_cone,
    v_rays,
    w_generators,
)

__version__ = "0.1.0"
