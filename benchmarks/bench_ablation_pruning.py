"""Ablation — Algorithm 1's candidate pruning (DESIGN.md section 5).

The paper's search "only tries configurations that can improve the
SINR of at least one grid", pruning sectors that cannot help.  This
bench compares the three prefilter modes on the same scenario:

* ``none``  — evaluate every neighbor each iteration (pure greedy);
* ``rate``  — the paper-literal test (evaluate, keep improvers);
* ``sinr``  — the capture-test prefilter (no evaluation needed).

Expected shape: all three reach essentially the same utility, but the
``sinr`` prefilter spends the fewest model evaluations.  A run's cost is
what the evaluator's cost meter counts around ``tune_power``: every
candidate scored, the start configuration and rejected iterations
included.
"""

from repro.analysis.export import write_csv
from repro.core.evaluation import Evaluator
from repro.core.search import PowerSearchSettings, tune_power
from repro.upgrades.scenario import UpgradeScenario, select_targets

from conftest import report


def test_ablation_candidate_pruning(suburban_area, benchmark):
    area = suburban_area
    targets = select_targets(area, UpgradeScenario.SINGLE_SECTOR)
    c_before = area.c_before
    c_upgrade = c_before.with_offline(targets)

    def run_all():
        out = {}
        for prefilter in ("none", "rate", "sinr"):
            evaluator = Evaluator(area.engine, area.ue_density)
            baseline = evaluator.state_of(c_before)
            meter = evaluator.cost_meter()
            result = tune_power(
                evaluator, area.network, c_upgrade, baseline, targets,
                PowerSearchSettings(prefilter=prefilter))
            out[prefilter] = (result.final_utility, meter.spent(),
                              result.n_steps)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report("")
    report("Ablation: Algorithm 1 candidate pruning")
    rows = []
    for mode, (utility, evals, steps) in results.items():
        report(f"  {mode:5s}: final utility {utility:12.1f}  "
               f"{evals:4d} evaluations  {steps:3d} steps")
        rows.append([mode, f"{utility:.2f}", evals, steps])
    write_csv("ablation_pruning",
              ["prefilter", "final_utility", "evaluations", "steps"],
              rows)

    # All modes land within a whisker of each other...
    utilities = [r[0] for r in results.values()]
    assert max(utilities) - min(utilities) < \
        0.02 * max(abs(u) for u in utilities) + 1e-9
    # ...but the sinr prefilter is the cheapest per step taken.
    per_step = {m: r[1] / max(r[2], 1) for m, r in results.items()}
    assert per_step["sinr"] <= per_step["none"] + 1e-9
