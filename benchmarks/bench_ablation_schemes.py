"""Ablation: what each of INC's two schemes contributes.

INC = ALG + (1) incremental bound-pruned updates + (2) interval-based
assignment organisation.  The ablation runs, on the same instances, ALG, the
updates-only variant (INC-U), the organisation-only variant (ALG-O) and the
full INC, and reports the two counters the schemes target:

* score computations — reduced by scheme (1), untouched by scheme (2);
* assignments examined — reduced by scheme (2), untouched by scheme (1).

Every variant returns exactly the ALG schedule, so utility columns are equal
by construction (also asserted).
"""

from repro.datasets.builders import build_dataset
from repro.experiments.harness import run_algorithms

from benchmarks.conftest import persist_rows, run_once

ABLATION_ALGORITHMS = ("ALG", "INC-U", "ALG-O", "INC")


def _run_ablation(scale: str):
    sizes = {"tiny": (120, 18, 9, 6), "small": (400, 36, 18, 12), "default": (1200, 72, 36, 24)}
    num_users, num_events, num_intervals, k = sizes.get(scale, sizes["small"])
    rows = []
    for dataset in ("Zip", "Unf", "Meetup"):
        instance = build_dataset(
            dataset,
            num_users=num_users,
            num_events=num_events,
            num_intervals=num_intervals,
            seed=7,
        )
        records = run_algorithms(
            instance,
            2 * k,                      # k > |T|: the regime where updates matter
            algorithms=ABLATION_ALGORITHMS,
            experiment_id="ablation",
            params={"dataset": dataset},
        )
        rows.extend(record.to_row() for record in records)
    return rows


def test_ablation_of_inc_schemes(benchmark, bench_scale, results_dir):
    rows = run_once(benchmark, _run_ablation, bench_scale)
    text = persist_rows("ablation_inc_schemes", rows, results_dir)
    print("\n" + text)

    by_dataset = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], {})[row["algorithm"]] = row
    for dataset, algorithms in by_dataset.items():
        alg, inc_u = algorithms["ALG"], algorithms["INC-U"]
        alg_o, inc = algorithms["ALG-O"], algorithms["INC"]
        # All variants return ALG's schedule, hence ALG's utility.
        for row in (inc_u, alg_o, inc):
            assert abs(row["utility"] - alg["utility"]) <= 1e-6 * max(1.0, alg["utility"]), dataset
        # Scheme 1 (incremental updates) saves score computations.
        assert inc_u["score_computations"] <= alg["score_computations"], dataset
        # Scheme 2 (organisation) saves examinations without touching computations.
        assert alg_o["score_computations"] == alg["score_computations"], dataset
        assert alg_o["assignments_examined"] < alg["assignments_examined"], dataset
        # Full INC enjoys both savings.
        assert inc["score_computations"] <= alg["score_computations"], dataset
        assert inc["assignments_examined"] < alg["assignments_examined"], dataset
