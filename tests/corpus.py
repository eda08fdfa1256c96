"""The generated instances that several differential tests read, built once per pytest run.

Not collected by pytest (its name does not match ``test_*.py``).  An instance keeps what it
derives on its matrices, so a test that counts work must build its own instance instead.
"""

from functools import lru_cache

from csverify.generators import GenProfile, gen_adversarial, gen_cs_instance
from csverify.verifier import BREAKABLE_HYPOTHESES


@lru_cache(maxsize=None)
def generated() -> tuple:
    """(seed, max_dim, broken, instance) over ``GenProfile`` seeds 1-40 x max dim 6 and 10: for
    each pair the clean instance (broken is None), then one per breakable hypothesis, in order."""
    out = []
    for seed in range(1, 41):
        for max_dim in (6, 10):
            for broken in (None,) + BREAKABLE_HYPOTHESES:
                profile = GenProfile(seed=seed, max_dim_per_node=max_dim, broken_hypothesis=broken)
                out.append((seed, max_dim, broken, gen_adversarial(profile) if broken else gen_cs_instance(profile)))
    return tuple(out)
