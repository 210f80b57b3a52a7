"""Galois covers of finite graphs with deck group the units mod p:
voltage constructions, Picard groups with their deck action, equivariant
Ihara zeta special values over the group ring, and the character-by-character
comparison of eigenspace sizes with p-adic absolute values of L-values.
"""

from .arith import VerificationError, is_odd_prime, p_part, smallest_primitive_root
from .characters import Character
from .groupring import CyclicGroup, GroupRingElement
from .herbrand import (
    TheoremReport,
    Verdict,
    build_report,
    default_precision,
)
from .padic import PAdicInt, PrecisionExhausted, teichmuller
from .picard import PicardModule, picard_factors
from .serre import SerreGraph, bouquet
from .snf import integer_determinant
from .specfile import bundled_spec, load_spec, spec_from_dict, spec_to_dict
from .voltage import (
    DerivedCover,
    DisconnectedCover,
    VoltageSpec,
    connected_by_voltage_criterion,
    cycle_voltage_subgroup,
    derive,
    require_connected_cover,
)
from .zeta import duality_check, equivariant_laplacian, eta_at_one, l_value

__version__ = "0.1.0"
