"""degmix: uniform sampling of graphs with prescribed degree sequences.

Swap Markov chains over labeled realizations of simple, bipartite, and
directed degree sequences, factorized through the canonical split-sequence
decomposition into provably fast-mixing coordinate chains, plus an exact
desk-scale verification engine (exhaustive realization graphs, spectral
gaps, Cartesian-product and swap-locality checks).

``import degmix`` loads no submodule.  Each public name below, and each
submodule such as ``degmix.space``, is imported on first access (PEP 562),
so a program, or a CLI job, pays only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "chain": ("ChainState", "ProductChain", "derive_seed", "sample"),
    "counting": (
        "CountReport",
        "count_almost_half_regular",
        "count_almost_half_regular_exhaustive",
        "count_bipartite_graphical",
        "count_composed_class",
    ),
    "decomposition": (
        "CanonicalDecomposition",
        "GoodPair",
        "SplitSequence",
        "bipartite_decomposable",
        "canonical_decompose",
        "canonical_decompose_bipartite",
        "compose",
        "compose_bipartite",
        "compose_bipartite_many",
        "compose_directed",
        "good_pairs",
        "greenhill_condition",
        "is_split",
        "psi",
        "psi_inverse",
        "recompose",
        "split_lift",
    ),
    "errors": (
        "CheegerViolation",
        "DegmixError",
        "Disconnected",
        "DivisibilityError",
        "ForbiddenSetNotMatching",
        "InconsistentMatrix",
        "InvalidSplit",
        "NotGraphical",
        "ProductMismatch",
        "TooLarge",
    ),
    "graphs": (
        "Instance",
        "LabeledBipartiteGraph",
        "LabeledGraph",
        "SwapMove",
        "bipartite_instance",
        "directed_instance",
        "enumerate_swaps",
        "simple_instance",
    ),
    "sequences": (
        "BipartiteDegreeSequence",
        "DegreeSequence",
        "DirectedDegreeSequence",
        "ForbiddenSet",
        "directed_graphical",
        "erdos_gallai",
        "gale_ryser",
        "realize",
        "realize_bipartite",
        "realize_directed",
        "restricted_bipartite_graphical",
    ),
    "space": (
        "Space",
        "SpectralReport",
        "enumerate_realizations",
        "realization_space",
        "spectral_report",
        "swap_locality_report",
        "tv_distance_audit",
        "verify_cartesian_product",
    ),
    "spectra": (
        "ComponentSequence",
        "DegreeSpectraMatrix",
        "component_sequences",
        "degree_spectra",
        "dsm_graphical",
        "dsm_sample",
        "dsm_witness",
        "joint_degree_view",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "io", "layout"}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name not in _SOURCE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _SOURCE[name], __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
