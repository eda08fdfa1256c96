"""The search for a load-bearing weight hypothesis: an adversarial instance that breaks one weight
hypothesis and makes a conclusion literally non-exact.  ``tests/fixtures/load_bearing.json`` holds
the counterexample criterion 6 finds.

Not collected by pytest (its name does not match ``test_*.py``).  The ``SEARCH_*`` constants are
module attributes so that a test can narrow the search with ``monkeypatch``.
"""

from typing import NamedTuple, Optional

from corpus import failed_categories
from csverify.generators import GenProfile, gen_adversarial, split_seed
from csverify.verifier import CSInstance, InconsistencyError, check_instance_hypotheses, conclusion_exactness

# the tries search_load_bearing makes, the size and degrees of the instances it
# draws, the hypotheses it breaks in turn, and the conclusions it tests
SEARCH_BUDGET = 10_000
SEARCH_MAX_DIM = 6
SEARCH_DEGREE_RANGE = (0, 4)
SEARCH_TAGS = ("A_bound", "P_centering")
SEARCH_PROPOSITIONS = ("P4", "P1")


class LoadBearingResult(NamedTuple):
    """Outcome of the search for a hypothesis-dropping counterexample."""

    found: bool
    tries: int
    instance: Optional[CSInstance] = None
    broken: Optional[str] = None
    proposition: Optional[str] = None
    degree: Optional[int] = None
    witness: Optional[tuple] = None


def search_load_bearing(seed: int) -> LoadBearingResult:
    """Search adversarial instances for a literally non-exact conclusion.

    Alternates over the broken-hypothesis tags of SEARCH_TAGS; on a hit the
    instance's hypothesis report is re-checked to confirm only the named
    hypothesis failed.  Exhausting SEARCH_BUDGET is reported as inconclusive,
    not as a failure.
    """
    for i in range(SEARCH_BUDGET):
        tag = SEARCH_TAGS[i % len(SEARCH_TAGS)]
        profile = GenProfile(seed=split_seed(seed, i), max_dim_per_node=SEARCH_MAX_DIM,
                             degree_range=SEARCH_DEGREE_RANGE, broken_hypothesis=tag)
        inst = gen_adversarial(profile)
        for k in inst.degrees(pad=2):
            for which in SEARCH_PROPOSITIONS:
                verdict = conclusion_exactness(inst, which, k)
                if verdict.exact:
                    continue
                failed = failed_categories(check_instance_hypotheses(inst))
                if failed != (tag,):
                    raise InconsistencyError(f"adversarial instance broke {failed}, wanted only {tag}")
                return LoadBearingResult(True, i + 1, instance=inst, broken=tag,
                                         proposition=which, degree=k, witness=verdict.witness)
    return LoadBearingResult(False, SEARCH_BUDGET)
