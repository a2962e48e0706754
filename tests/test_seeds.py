"""The paper's comparison on five base seeds (ROADMAP item 14).

Criteria 7 and 8 of the acceptance suite grade the toy and walker experiments
at base seed 0 alone. Here the same acceptance configs, 50 replicates each,
run at five base seeds fixed in advance, and each must show what those
criteria check: after damage SELA reaches the goal in fewer steps (median
`total_steps`) than each episodic baseline, and it reaches the goal often
enough. A change to the experiments' bytes may move the step counts; it must
not lose this comparison on any of the seeds.
"""

from dataclasses import replace

import pytest

from sela.experiment import build_archive, run_experiment
from sela.mission import Method
from test_acceptance import DIRECT_STEPS, TOY, WALKER, medians, success_rate

BASE_SEEDS = (0, 1000, 2000, 3000, 4000)


@pytest.mark.parametrize("seed", BASE_SEEDS)
def test_toy_sela_beats_the_baselines(seed):
    records, _ = run_experiment(replace(TOY, base_seed=seed))
    sela_median = medians(records, Method.SELA)
    assert success_rate(records, Method.SELA) >= 0.95
    assert sela_median < medians(records, Method.BABBLING)
    assert sela_median < medians(records, Method.EPISODIC_ITE)
    assert sela_median <= 1.5 * DIRECT_STEPS


@pytest.mark.parametrize("seed", BASE_SEEDS)
def test_walker_sela_beats_the_baselines(seed):
    walker = replace(WALKER, base_seed=seed)   # the archive is built from the same base seed
    records, _ = run_experiment(walker, archive=build_archive(walker))
    sela_median = medians(records, Method.SELA)
    assert sela_median < medians(records, Method.UNCERTAINTY)
    assert sela_median < medians(records, Method.EPISODIC_ITE)
    assert success_rate(records, Method.SELA) >= 0.90
