"""degmix: uniform sampling of graphs with prescribed degree sequences.

Swap Markov chains over labeled realizations of simple, bipartite, and
directed degree sequences, factorized through the canonical split-sequence
decomposition into provably fast-mixing coordinate chains, plus an exact
desk-scale verification engine (exhaustive realization graphs, spectral
gaps, Cartesian-product and swap-locality checks).
"""

from .chain import ChainState, ProductChain, derive_seed, sample
from .counting import (
    CountReport,
    count_almost_half_regular,
    count_almost_half_regular_exhaustive,
    count_bipartite_graphical,
    count_composed_class,
)
from .decomposition import (
    CanonicalDecomposition,
    GoodPair,
    SplitSequence,
    bipartite_decomposable,
    canonical_decompose,
    canonical_decompose_bipartite,
    compose,
    compose_bipartite,
    compose_bipartite_many,
    compose_directed,
    good_pairs,
    greenhill_condition,
    is_split,
    psi,
    psi_inverse,
    recompose,
    split_lift,
)
from .errors import (
    CheegerViolation,
    DegmixError,
    Disconnected,
    DivisibilityError,
    ForbiddenSetNotMatching,
    InconsistentMatrix,
    InvalidSplit,
    NotGraphical,
    ProductMismatch,
    TooLarge,
)
from .graphs import (
    Instance,
    LabeledBipartiteGraph,
    LabeledGraph,
    SwapMove,
    bipartite_instance,
    directed_instance,
    enumerate_swaps,
    simple_instance,
)
from .sequences import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    directed_graphical,
    erdos_gallai,
    gale_ryser,
    realize,
    realize_bipartite,
    realize_directed,
    restricted_bipartite_graphical,
)
from .space import (
    Space,
    SpectralReport,
    enumerate_realizations,
    realization_space,
    spectral_report,
    swap_locality_report,
    tv_distance_audit,
    verify_cartesian_product,
)
from .spectra import (
    ComponentSequence,
    DegreeSpectraMatrix,
    component_sequences,
    degree_spectra,
    dsm_graphical,
    dsm_sample,
    dsm_witness,
    joint_degree_view,
)

__version__ = "0.1.0"
