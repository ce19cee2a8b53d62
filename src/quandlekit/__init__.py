"""Finite-quandle toolkit: group/quandle tables, tangle colorings, and
non-admissibility criteria."""

from ._kernels import BACKEND
from .groups import (
    FiniteGroup,
    Subgroup,
    automorphisms,
    catalog,
    center,
    normal_subgroups,
    subgroups,
    validate_group,
)
from .quandles import (
    FiniteQuandle,
    conj_quandle,
    dihedral_quandle,
    galex,
    hopf_extension,
    is_homomorphism,
    isomorphic,
    subquandle_closure,
    trivial_quandle,
    validate_quandle,
)
from .tangles import (
    Coloring,
    Crossing,
    TangleDiagram,
    builtin_tangle,
    enumerate_colorings,
    fundamental_quandle_presentation,
    parse_tangle,
)
from .criteria import (
    CensusRecord,
    Witness,
    associated_group_presentation,
    census_galex,
    hopf_witness,
    trefoil_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "FiniteGroup", "Subgroup",
    "validate_group", "catalog", "automorphisms", "subgroups",
    "normal_subgroups", "center",
    "FiniteQuandle", "validate_quandle", "trivial_quandle", "dihedral_quandle",
    "conj_quandle", "galex", "hopf_extension", "subquandle_closure",
    "is_homomorphism", "isomorphic",
    "TangleDiagram", "Crossing", "Coloring", "parse_tangle", "builtin_tangle",
    "enumerate_colorings", "fundamental_quandle_presentation",
    "Witness", "CensusRecord", "hopf_witness", "trefoil_witness",
    "associated_group_presentation", "census_galex",
]
