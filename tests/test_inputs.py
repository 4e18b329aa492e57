"""Raw arrays read as the domain types they stand for, and counts as integers.

Every public function reads each adjacency, proportions, feasible-plan,
labels and loss-free connectivity argument through its type once, at
entry.  A raw array then gives the typed call's result bit for bit, and a
malformed one raises the type's own ``ValueError``.  A connectivity that a
loss reads goes to ``CompositeLoss.prepare_theta`` as given, so the raw θ
here lies inside the loss clamp, where the typed one is not clipped.
Every count (node and cluster counts, seeds, grid sizes, worker counts)
reads through ``sbm._count``: an integer, not a bool, within its range.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gwsbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    Labels,
    Proportions,
    TransportPlan,
    aligned_plan_error,
    ExperimentConfig,
    ari,
    auto_sparsity,
    balanced_proportions,
    blend_plan,
    block_densities,
    brute_force_srgw,
    build_scenario,
    column_mass_penalty,
    connectivity_error,
    elbo_value,
    exact_log_likelihood,
    hard_labels,
    kmeans,
    label_accuracy,
    labels_to_plan,
    make_loss,
    penalty_linearization,
    restarted_fw_minimum,
    run_ari_sweep,
    sample_graph,
    selected_k,
    spectral_init,
    srgw_objective,
    sup_log_likelihood,
    unbalanced_proportions,
    uniform_plan,
    vem_fit,
    write_edge_list,
    write_labels,
)
from gwsbm.sbm import adjacency_from_edges

N = 7
_UPPER = np.triu(np.random.default_rng(7).random((N, N)) < 0.5, 1)
RAW = {
    "adj": (_UPPER | _UPPER.T).astype(np.float64),
    "conn": np.array([[0.6, 0.1], [0.1, 0.5]]),
    "props": np.array([0.4, 0.6]),
    "plan": labels_to_plan(Labels([0, 1, 0, 1, 1, 0, 1], 2)).matrix.copy(),
    "labels": [1, 1, 0, 0, 1, 0, 0],
}
TYPED = {
    "adj": AdjacencyMatrix(RAW["adj"]),
    "conn": ConnectivityMatrix(RAW["conn"]),
    "props": Proportions(RAW["props"]),
    "plan": TransportPlan(RAW["plan"]),
    "labels": Labels(RAW["labels"], 2),
}
#: A malformed raw value of each kind, and the message its type refuses it with.
MALFORMED = {
    "adj": (np.zeros((N, N - 1)), "adjacency matrix must be square"),
    "conn": (np.array([[0.6, 0.1], [0.2, 0.5]]), "connectivity must be symmetric"),
    "props": (np.array([0.3, 0.6]), "proportions must sum to one"),
    "plan": (RAW["plan"] * 1.1, "plan rows must each sum to 1/n"),
    "labels": (np.array(RAW["labels"], dtype=np.float64), "labels must be integers"),
}
#: The partition the scores compare the labels argument with.
PLANTED = Labels([0, 1, 0, 1, 1, 0, 1], 2)
RESP = np.linspace(0.2, 0.8, N)[:, None] * [1.0, -1.0] + [0.0, 1.0]
LOSS = make_loss("bernoulli_nll")


def _edge_list_bytes(adj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        write_edge_list(adj, path)
        return path.read_bytes()


def _labels_bytes(labels) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.csv"
        write_labels(labels, path)
        return path.read_bytes()


#: (function, argument) -> the call with every other argument typed.
CALLS = {
    ("elbo_value", "props"): lambda x: elbo_value(RESP, TYPED["adj"], TYPED["conn"], x),
    ("elbo_value", "conn"): lambda x: elbo_value(RESP, TYPED["adj"], x, TYPED["props"]),
    ("exact_log_likelihood", "adj"): lambda x: exact_log_likelihood(x, TYPED["conn"], TYPED["props"]),
    ("exact_log_likelihood", "conn"): lambda x: exact_log_likelihood(TYPED["adj"], x, TYPED["props"]),
    ("exact_log_likelihood", "props"): lambda x: exact_log_likelihood(TYPED["adj"], TYPED["conn"], x),
    ("sup_log_likelihood", "adj"): lambda x: sup_log_likelihood(x, TYPED["conn"], grid_size=5),
    ("sup_log_likelihood", "conn"): lambda x: sup_log_likelihood(TYPED["adj"], x, grid_size=5),
    ("sample_graph", "conn"): lambda x: sample_graph(x, TYPED["props"], 30, seed=1),
    ("sample_graph", "props"): lambda x: sample_graph(TYPED["conn"], x, 30, seed=1),
    ("brute_force_srgw", "adj"): lambda x: brute_force_srgw(x, LOSS, TYPED["conn"]),
    ("restarted_fw_minimum", "adj"): lambda x: restarted_fw_minimum(x, LOSS, TYPED["conn"]),
    ("block_densities", "adj"): lambda x: block_densities(x, Labels([0, 1, 0, 1, 1, 0, 1], 2)),
    ("block_densities", "labels"): lambda x: block_densities(TYPED["adj"], x),
    ("spectral_init", "adj"): lambda x: spectral_init(x, 2, seed=0),
    ("blend_plan", "plan"): blend_plan,
    ("labels_to_plan", "labels"): labels_to_plan,
    ("ari", "labels"): lambda x: ari(x, PLANTED),
    ("label_accuracy", "labels"): lambda x: label_accuracy(PLANTED, x),
    ("connectivity_error", "labels"): lambda x: connectivity_error(TYPED["conn"], TYPED["conn"], x,
                                                                   PLANTED),
    ("aligned_plan_error", "labels"): lambda x: aligned_plan_error(TYPED["plan"], x),
    ("write_edge_list", "adj"): _edge_list_bytes,
    ("write_labels", "labels"): _labels_bytes,
}


def _parts(result) -> tuple:
    """A result as a flat tuple of floats, bytes and arrays."""
    if isinstance(result, tuple):
        return tuple(part for item in result for part in _parts(item))
    if isinstance(result, AdjacencyMatrix):
        return result.indptr, result.indices, result.data
    if isinstance(result, Labels):
        return result.values, result.k
    if isinstance(result, TransportPlan):
        return (result.matrix,)
    return (result,)


@pytest.mark.parametrize("call", CALLS, ids="-".join)
def test_raw_argument_reads_as_its_type(call):
    """The raw call equals the typed one bit for bit: floats by ``==``, arrays
    with their dtypes, files byte for byte."""
    kind = call[1]
    got, want = _parts(CALLS[call](RAW[kind])), _parts(CALLS[call](TYPED[kind]))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=w.dtype.kind == "f")
        else:
            assert g == w


@pytest.mark.parametrize("call", CALLS, ids="-".join)
def test_malformed_raw_argument_raises_its_types_error(call):
    bad, message = MALFORMED[call[1]]
    with pytest.raises(ValueError, match=message):
        CALLS[call](bad)


def _config(**counts) -> ExperimentConfig:
    base = dict(scenario="assortative", n=12, k_true=2, k_search=2, p_out=0.1, p_in_grid=[0.6],
                seeds=[0], loss="bernoulli_nll", method="srgw_nll", output_path="out.csv")
    return ExperimentConfig(**{**base, **counts})


POINTS = np.linspace(0.0, 1.0, 2 * N).reshape(N, 2)
#: (function, count name) -> (the call with that count, its lowest value, its highest or None).
COUNTS = {
    ("Labels", "label range k"): (lambda x: Labels([0], x), 1, None),
    ("build_scenario", "k"): (lambda x: build_scenario("assortative", x, 0.5, 0.1), 1, None),
    ("build_scenario hub", "k"): (lambda x: build_scenario("hub", x, 0.5, 0.1), 2, None),
    ("balanced_proportions", "k"): (balanced_proportions, 1, None),
    ("unbalanced_proportions", "k"): (unbalanced_proportions, 1, None),
    ("sample_graph", "n"): (lambda x: sample_graph(TYPED["conn"], TYPED["props"], x, 0), 2, None),
    ("sample_graph", "seed"): (lambda x: sample_graph(TYPED["conn"], TYPED["props"], 30, x), 0, None),
    ("adjacency_from_edges", "n"): (lambda x: adjacency_from_edges(x, [], []), 1, None),
    ("uniform_plan", "n"): (lambda x: uniform_plan(x, 2), 1, None),
    ("uniform_plan", "k"): (lambda x: uniform_plan(3, x), 1, None),
    ("labels_to_plan", "k"): (lambda x: labels_to_plan(TYPED["labels"], x), 2, None),
    ("kmeans", "k"): (lambda x: kmeans(POINTS, x, 0), 1, N),
    ("kmeans", "seed"): (lambda x: kmeans(POINTS, 2, x), 0, None),
    ("spectral_init", "k"): (lambda x: spectral_init(TYPED["adj"], x, 0), 1, N),
    ("spectral_init", "seed"): (lambda x: spectral_init(TYPED["adj"], 2, x), 0, None),
    ("vem_fit", "k"): (lambda x: vem_fit(TYPED["adj"], x, RESP), 1, None),
    ("sup_log_likelihood", "grid_size"): (
        lambda x: sup_log_likelihood(TYPED["adj"], TYPED["conn"], grid_size=x), 3, None),
    ("auto_sparsity", "k_search"): (lambda x: auto_sparsity(x, 10), 1, None),
    ("auto_sparsity", "n"): (lambda x: auto_sparsity(2, x), 1, None),
    ("ExperimentConfig", "n"): (lambda x: _config(n=x).validate(), 2, None),
    ("ExperimentConfig", "k_true"): (lambda x: _config(k_true=x).validate(), 1, None),
    ("ExperimentConfig", "k_search"): (lambda x: _config(k_search=x).validate(), 1, None),
    ("ExperimentConfig", "seeds[1]"): (lambda x: _config(seeds=[0, x]).validate(), 0, None),
    ("ExperimentConfig", "n_grid[0]"): (lambda x: _config(n_grid=[x]).validate(), 2, None),
    ("run_ari_sweep", "jobs"): (lambda x: run_ari_sweep(_config(), jobs=x), 1, None),
}


@pytest.mark.parametrize("bad", ["float", "bool", "below"])
@pytest.mark.parametrize("site", COUNTS, ids=" ".join)
def test_count_refuses_floats_bools_and_values_out_of_range(site, bad, tmp_path, monkeypatch):
    """A float count used to fail inside numpy or run (``unbalanced_proportions(2.5)``
    gave 3 clusters), and ``True`` passed as 1; each is now the one ``_count`` error,
    raised before anything is written."""
    monkeypatch.chdir(tmp_path)
    call, low, high = COUNTS[site]
    name = site[1]
    value, message = {
        "float": (2.0, f"{name} must be an integer, got 2.0"),
        "bool": (True, f"{name} must be an integer, got True"),
        "below": (low - 1, f"{name} must be an integer "
                  + (f">= {low}" if high is None else f"in [{low}, {high}]") + f", got {low - 1}"),
    }[bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)
    assert not list(tmp_path.iterdir())


def test_numpy_integer_counts_are_accepted_as_ints(tmp_path):
    """``np.int64`` counts pass the config check (they used to be refused) and are
    held as ints, so the config still writes to JSON."""
    config = _config(n=np.int64(12), k_search=np.int64(2), seeds=[np.int64(3)],
                     n_grid=[np.int64(12)], output_path=str(tmp_path / "out.csv"))
    config.validate()
    assert json.loads(json.dumps(config.to_dict()))["seeds"] == [3]
    assert type(config.n) is int and type(config.n_grid[0]) is int
    assert type(Labels([0], np.int64(2)).k) is int


#: Calls that read a plan, each given one that is not an n x k matrix.
NOT_2D = {
    "selected_k": lambda: selected_k(np.ones(3)),
    "hard_labels": lambda: hard_labels(np.ones(3)),
    "penalty_linearization": lambda: penalty_linearization(np.full(3, 1 / 3), 0.1),
    "column_mass_penalty": lambda: column_mass_penalty(np.ones((2, 2, 2))),
    "aligned_plan_error": lambda: aligned_plan_error(np.full(N, 1 / N), PLANTED),
    "srgw_objective": lambda: srgw_objective(TYPED["adj"], np.full(N, 1 / N), TYPED["conn"], LOSS),
}


@pytest.mark.parametrize("call", NOT_2D)
def test_plan_readers_refuse_a_plan_that_is_not_2d(call):
    """A 1-d or 3-d plan used to give a count, a scalar or numpy's own error;
    ``column_mass_penalty`` still takes the 1-d masses of a plan."""
    with pytest.raises(ValueError, match="plan must be a 2-d array"):
        NOT_2D[call]()
    assert column_mass_penalty([0.25, 0.25]) == 1.0
