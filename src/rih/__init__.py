"""Nearest-neighbor two-body Hamiltonians on Lee-metric lattices, with the
tile/pairing machinery needed to pose and check their ground-energy decision
problem."""

# first, so the BLAS pools load at one thread (see rih._blas)
from rih import _blas  # noqa: F401
from rih.hamiltonian import (
    TwoBodyTerm,
    build_site_term,
    check_term_symmetries,
    term_hash,
    toy_plugs,
)
from rih.instance import (
    DecisionSpec,
    InstanceEncoding,
    f_search,
    is_probable_prime,
    reduction,
    verify_claims,
)
from rih.lattice import LatticeSpec
from rih.rules import (
    GridTiling,
    TileRuleSet,
    check_tiling,
    decode_lifted,
    enumerate_valid,
    lift_3x3,
    open_bc_frame_ruleset,
)
from rih.solver import (
    EnergyReport,
    ground_energy_search,
    single_copy_floor_check,
    tile_sector_energy,
)
from rih.tiling import (
    ClassificationFlags,
    Tiling,
    classical_energy,
    classify,
    epr_demand_graph,
    rule_violations,
    striped_witness,
)

__version__ = "0.1.0"

__all__ = [
    "LatticeSpec",
    "Tiling",
    "ClassificationFlags",
    "classify",
    "striped_witness",
    "epr_demand_graph",
    "rule_violations",
    "classical_energy",
    "TwoBodyTerm",
    "build_site_term",
    "toy_plugs",
    "check_term_symmetries",
    "term_hash",
    "EnergyReport",
    "ground_energy_search",
    "tile_sector_energy",
    "single_copy_floor_check",
    "TileRuleSet",
    "GridTiling",
    "check_tiling",
    "enumerate_valid",
    "lift_3x3",
    "decode_lifted",
    "open_bc_frame_ruleset",
    "InstanceEncoding",
    "DecisionSpec",
    "f_search",
    "reduction",
    "is_probable_prime",
    "verify_claims",
    "__version__",
]
