"""Raw arrays read as the domain types they stand for.

Every public function reads each adjacency, proportions, feasible-plan and
loss-free connectivity argument through its type once, at entry.  A raw
array then gives the typed call's result bit for bit, and a malformed one
raises the type's own ``ValueError``.  A connectivity that a loss reads
goes to ``CompositeLoss.prepare_theta`` as given, so the raw θ here lies
inside the loss clamp, where the typed one is not clipped.
"""

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
    blend_plan,
    block_densities,
    brute_force_srgw,
    elbo_value,
    exact_log_likelihood,
    labels_to_plan,
    make_loss,
    restarted_fw_minimum,
    sample_graph,
    spectral_init,
    sup_log_likelihood,
    write_edge_list,
)

N = 7
_UPPER = np.triu(np.random.default_rng(7).random((N, N)) < 0.5, 1)
RAW = {
    "adj": (_UPPER | _UPPER.T).astype(np.float64),
    "conn": np.array([[0.6, 0.1], [0.1, 0.5]]),
    "props": np.array([0.4, 0.6]),
    "plan": labels_to_plan(Labels([0, 1, 0, 1, 1, 0, 1], 2)).matrix.copy(),
}
TYPED = {
    "adj": AdjacencyMatrix(RAW["adj"]),
    "conn": ConnectivityMatrix(RAW["conn"]),
    "props": Proportions(RAW["props"]),
    "plan": TransportPlan(RAW["plan"]),
}
#: A malformed raw value of each kind, and the message its type refuses it with.
MALFORMED = {
    "adj": (np.zeros((N, N - 1)), "adjacency matrix must be square"),
    "conn": (np.array([[0.6, 0.1], [0.2, 0.5]]), "connectivity must be symmetric"),
    "props": (np.array([0.3, 0.6]), "proportions must sum to one"),
    "plan": (RAW["plan"] * 1.1, "plan rows must each sum to 1/n"),
}
RESP = np.linspace(0.2, 0.8, N)[:, None] * [1.0, -1.0] + [0.0, 1.0]
LOSS = make_loss("bernoulli_nll")


def _edge_list_bytes(adj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.txt"
        write_edge_list(adj, path)
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
    ("spectral_init", "adj"): lambda x: spectral_init(x, 2, seed=0),
    ("blend_plan", "plan"): blend_plan,
    ("write_edge_list", "adj"): _edge_list_bytes,
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
