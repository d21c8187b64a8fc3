"""The "mutants" hypothesis profile, for tools/mutants.py's runs of tier-1.

Select it with hypothesis's own flag, `pytest --hypothesis-profile=mutants`; without the flag
tier-1 runs under hypothesis's defaults.  A mutant's run needs the failing tests' ids, not
minimal examples, and the same ids on every run: no shrink or explain phase, derandomized
draws, no example database and no deadline.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants",
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
    derandomize=True,
    database=None,
    deadline=None,
)
