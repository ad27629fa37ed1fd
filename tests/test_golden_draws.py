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
    "bipartite-auto": "dfc3680ec5e452988e3bceee67fb89eb1868068d909df2a8724b6b2a918d3ad3",
    "bipartite-off": "2182912cdd73478f175f0eb658c958c7c8dff47cddc8b043ec19adbad6675bf8",
    "directed": "9d870cf37a3cba69de577fcb7c530f99cc83cfc46f5810fc4233c144c3924a2a",
    "restricted": "bc10577365c8c5373be85bdd03696e11bd2e74251a89e9c2acd848c908e83d75",
    "simple-auto": "0240a513d6f44034441f61a22c7598fbf93cebed3e2f23db1fa09f1e58cf8b0d",
    "simple-off": "d83ce1cbcbedca1ad9f41a2cc82de2491e5c4120ce24037761937c2535eb24d7",
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
    assert digest == "db132278ae2099e31e65a77f65f9274adaf2574c3f0729f64cfb1e342a5c7b46"
