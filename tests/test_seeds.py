"""The paper's comparison on five base seeds (ROADMAP item 14).

Criteria 7 and 8 of the acceptance suite (`tests/test_acceptance.py`) grade
the toy and walker experiments at base seed 0. Here the same acceptance
configs, 50 replicates each, run at the other four of five base seeds fixed
in advance, and each must show what those criteria check: after damage SELA
reaches the goal in fewer steps (median `total_steps`) than each episodic
baseline, and it reaches the goal often enough. Seed 0 is not run again here,
since criteria 7 and 8 make the same assertions on the same configs; so all
five seeds are still checked. A change to the experiments' bytes may move the
step counts; it must not lose this comparison on any of the seeds.
"""

from dataclasses import replace

import pytest

from sela.experiment import build_archive, run_experiment
from sela.mission import Method
from test_acceptance import DIRECT_STEPS, TOY, WALKER, medians, success_rate

BASE_SEEDS = (1000, 2000, 3000, 4000)   # seed 0: criteria 7 and 8


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
