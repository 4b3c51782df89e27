"""Exact egg-beater periodic-orbit algebra and Z_p-equivariant persistence."""

from .field import (
    CyclotomicField,
    CyclotomicNumber,
    Matrix,
    QQ_FIELD,
    cyclo_zeta,
    primitive_roots,
)
from .persistence import (
    Bar,
    Barcode,
    FilteredComplex,
    FinitePersistenceModule,
    INF,
    barcode_of_complex,
    barcode_of_module,
    direct_sum,
    les_check,
    longest_finite_bar,
    module_from_barcode,
    multiplicity,
    window_homology,
)
from .bottleneck import bottleneck, hopcroft_karp
from .equivariant import (
    EquivariantComplex,
    ZpPersistenceModule,
    construct_full_power,
    cyclic_tuple_module,
    eigenspace_module,
    full_power_check,
    kunneth_stabilize,
    mu_from_barcode,
    mu_p,
    mu_p_zeta,
    perturb_and_check_lipschitz,
    quotient_fix_module,
    spread_lower_bound_from_gaps,
    w_hat,
    w_hat_from_quotient,
    w_spread,
    zp_direct_sum,
)
from .freegroup import (
    Itinerary,
    Segment,
    Word,
    canonical_itinerary,
    conjugate_eq,
    cyclic_reduce,
    itinerary_to_word,
    parse_word,
    self_intersection,
)
from .eggbeater import (
    EggBeaterParams,
    FixedPointRecord,
    ReductionWindowError,
    action_exact,
    action_leading,
    block_matrix,
    block_vector,
    enumerate_records,
    fixture_params,
    h0,
    lambda_lattice,
    min_action_gap,
    nondegeneracy,
    param_search,
    phi_block,
    solve_2d,
    solve_signed,
    u0,
    validation_threshold,
)
from .model import (
    BoundsReport,
    ModelInput,
    bounds_report,
    eigenspace_family,
    model_input_from_records,
    paper_mu_lower_bound,
)

__version__ = "0.1.0"
