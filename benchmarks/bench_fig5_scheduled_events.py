"""Figure 5 — utility, score computations and time while varying k.

Paper shape being reproduced (Fig. 5a–5l):

* utility: ALG ≈ HOR ≫ TOP, RAND; the RAND gap widens with k;
* computations: ALG highest, HOR-I lowest (TOP aside); the gap grows with k;
* time follows the computation counts, with HOR-I roughly 3–5× faster than
  ALG at the largest k on the skewed datasets.
"""

from repro.experiments.figures import fig5

from benchmarks.conftest import persist_figure, run_once


def test_fig5_varying_scheduled_events(benchmark, bench_scale, results_dir):
    figure = run_once(benchmark, fig5, scale=bench_scale)
    text = persist_figure(figure, results_dir)
    print("\n" + text)

    # Qualitative shape checks (the quantitative series are persisted in benchmarks/results/).
    for dataset in figure.datasets:
        utility = figure.series(metric="utility", dataset=dataset)
        computations = figure.series(metric="user_computations", dataset=dataset)
        for k, alg_value in utility["ALG"]:
            rand_value = dict(utility["RAND"])[k]
            top_value = dict(utility["TOP"])[k]
            assert alg_value >= rand_value - 1e-9
            assert alg_value >= top_value - 1e-9
        largest_k = max(x for x, _ in computations["ALG"])
        assert dict(computations["HOR-I"])[largest_k] <= dict(computations["ALG"])[largest_k]
        assert dict(computations["INC"])[largest_k] <= dict(computations["ALG"])[largest_k]
