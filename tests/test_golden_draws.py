"""Golden digests of seeded draws: any change to the sampler that alters
which realization a seed produces fails here.

Each digest is the sha256 of the JSON-encoded list of draws.  The corpus
covers every sampling path: a simple sequence with two split components
plus a tail, a composed bipartite sequence, a restricted bipartite sequence
with a forbidden set, and a directed sequence, factorized and not, on one
worker and on three.  ``count`` is 10, so the draws come from eight logical
chains of unequal length.  Spectra-matrix draws come from one logical chain.
"""

import hashlib
import json

import pytest

from degmix import (
    BipartiteDegreeSequence,
    DegreeSequence,
    DirectedDegreeSequence,
    ForbiddenSet,
    LabeledGraph,
    degree_spectra,
    dsm_sample,
    sample,
)

# compose(psi_inverse((2,1)/(1,1,1)), compose(psi_inverse((2,2)/(2,1,1)),
# (2,2,2,1,1))), in a shuffled vertex order
SIMPLE = DegreeSequence((1, 3, 13, 1, 6, 6, 10, 5, 5, 3, 6, 12, 1, 4, 10))
# compose_bipartite_many of (2,1)/(1,1,1), (1,1)/(1,1) and (2,2,1)/(2,2,1),
# both classes shuffled
BIPARTITE = BipartiteDegreeSequence((2, 6, 4, 1, 2, 4, 7), (1, 3, 6, 1, 5, 1, 6, 3))
RESTRICTED = BipartiteDegreeSequence((2, 2, 1, 1, 1), (1, 2, 2, 1, 1))
FORBIDDEN = ForbiddenSet([(0, 0), (1, 1), (2, 2), (4, 3)])
DIRECTED = DirectedDegreeSequence((2, 1, 1, 2, 1, 0), (1, 2, 1, 1, 1, 1))

CASES = {
    "simple-auto": (SIMPLE, "auto", None),
    "simple-off": (SIMPLE, "off", None),
    "bipartite-auto": (BIPARTITE, "auto", None),
    "bipartite-off": (BIPARTITE, "off", None),
    "restricted": (RESTRICTED, "auto", FORBIDDEN),
    "directed": (DIRECTED, "auto", None),
}

GOLDEN = {
    "bipartite-auto": "15bf23ce38b479e8ee3811a50189da5c362a0b844c77c213fe324cf8c8dea8d1",
    "bipartite-off": "f685c3ad2651c3ad9fb4967bf2f70c2c50f64d6834077c4b8507d40408673511",
    "directed": "04d14eddea12f0134ca982c9cc4d566920b97ac28e7b98983523fd3bdaef9e99",
    "restricted": "4819ae1e13f2fa7c271ecbba81a1224a3892b5023509daecfd088efbc919718c",
    "simple-auto": "0f379c75098ed5bd225e6ab6351baee9730b427de77d814762befb533b07778d",
    "simple-off": "a9da354ad363da5b34d0c4f46ced0dae2c131217d19858bb7f6ed4f10b85d012",
}


def _digest(draws) -> str:
    return hashlib.sha256(json.dumps(draws).encode()).hexdigest()


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_draws_match_golden(case, jobs):
    seq, factorize, forbidden = CASES[case]
    draws = sample(seq, burn_in=200, thin=7, count=10, seed=2016,
                   factorize=factorize, forbidden=forbidden, jobs=jobs)
    assert len(draws) == 10
    assert _digest(draws) == GOLDEN[case]


def test_dsm_draws_match_golden():
    g = LabeledGraph(9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3),
                         (6, 7), (7, 8), (1, 8), (0, 5)])
    m = degree_spectra(g)  # three class-pair components
    draws = dsm_sample(m, burn_in=200, thin=7, count=10, seed=2016)
    assert all(degree_spectra(d) == m for d in draws)
    digest = _digest([sorted(d.edges) for d in draws])
    assert digest == "39ca35a98c8ae9f6b519a3948bfaee9ca4a6e0858f8595367ce28b82d371e46c"
