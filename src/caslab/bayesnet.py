"""Discrete Bayesian networks over binned continuous variables.

Nodes are listed in topological order (parents precede children).  Each node
carries a cut-point array of k+1 edges defining k value bins and a CPT with
one row per joint parent-bin assignment.  Sampling is ancestral: a bin is
drawn from the CPT row selected by the parents, then a continuous value is
drawn uniformly within the bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Assignment:
    """One joint draw: per-node bin indices and continuous values."""

    bins: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class DiscreteBayesNet:
    """Bayesian network structure plus (optionally fitted) CPTs.

    cpt[i] has shape (prod of parent bin counts, own bin count); an empty
    tuple marks an unfitted structure.
    """

    nodes: Tuple[str, ...]
    parents: Tuple[Tuple[int, ...], ...]
    bins: Tuple[np.ndarray, ...]
    cpt: Tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("network must contain at least one node")
        if len(self.parents) != len(self.nodes) or len(self.bins) != len(self.nodes):
            raise ValueError("parents and bins must match nodes")
        edges = []
        for i, e in enumerate(self.bins):
            e = np.asarray(e, dtype=float)
            if e.ndim != 1 or len(e) < 2:
                raise ValueError(f"node {self.nodes[i]} needs at least one bin")
            if np.any(np.diff(e) < 0):
                raise ValueError(f"cut points for {self.nodes[i]} must be non-decreasing")
            e = e.copy()
            e.setflags(write=False)
            edges.append(e)
        object.__setattr__(self, "bins", tuple(edges))
        for i, ps in enumerate(self.parents):
            for p in ps:
                if not (0 <= p < i):
                    raise ValueError("parents must precede children in node order")
        if self.cpt:
            if len(self.cpt) != len(self.nodes):
                raise ValueError("cpt must cover every node")
            tables = []
            for i, table in enumerate(self.cpt):
                table = np.asarray(table, dtype=float)
                expected = (self.parent_row_count(i), self.n_bins(i))
                if table.shape != expected:
                    raise ValueError(
                        f"cpt for {self.nodes[i]} has shape {table.shape}, expected {expected}"
                    )
                if np.any(table < 0):
                    raise ValueError(f"cpt for {self.nodes[i]} has negative entries")
                if np.any(np.abs(table.sum(axis=1) - 1.0) > ROW_SUM_TOL):
                    raise ValueError(f"cpt rows for {self.nodes[i]} must sum to 1")
                table = table.copy()
                table.setflags(write=False)
                tables.append(table)
            object.__setattr__(self, "cpt", tuple(tables))

    @property
    def is_fitted(self) -> bool:
        return bool(self.cpt)

    def n_bins(self, i: int) -> int:
        return len(self.bins[i]) - 1

    def parent_row_count(self, i: int) -> int:
        count = 1
        for p in self.parents[i]:
            count *= self.n_bins(p)
        return count

    def parent_row_index(self, i: int, bins: Sequence[int]) -> int:
        """Row index for node i's CPT given a full bin assignment.

        Parents are mixed-radix digits with the first parent most
        significant.
        """
        row = 0
        for p in self.parents[i]:
            row = row * self.n_bins(p) + int(bins[p])
        return row

    def parent_rows(self, i: int, bins: np.ndarray) -> np.ndarray:
        """parent_row_index over the last axis of an integer bin array."""
        row = np.zeros(bins.shape[:-1], dtype=int)
        for p in self.parents[i]:
            row = row * self.n_bins(p) + bins[..., p]
        return row

    def node_index(self, name: str) -> int:
        return self.nodes.index(name)

    @cached_property
    def cum_cpt(self) -> Tuple[np.ndarray, ...]:
        """Row-wise cumulative CPTs, as _draw_bin accumulates them."""
        return tuple(np.cumsum(table, axis=1) for table in self.cpt)

    @cached_property
    def log_cpt(self) -> Tuple[np.ndarray, ...]:
        """math.log of every CPT entry (as log_prob_bins takes it), -inf for 0."""
        return tuple(
            np.array([[math.log(p) if p > 0.0 else -math.inf for p in row] for row in table.tolist()])
            for table in self.cpt
        )


def fit_cpts(
    structure: DiscreteBayesNet,
    data: np.ndarray,
    prior_count: float = 1.0,
) -> DiscreteBayesNet:
    """Fit CPTs from binned samples with a symmetric Dirichlet (Laplace) prior.

    data is an (n, num_nodes) integer array of bin indices.  Each CPT cell is
    (count + prior_count) / (row_total + prior_count * n_bins).  Rows with no
    data and no prior fall back to uniform so every row stays normalized.
    """
    if not math.isfinite(prior_count) or prior_count < 0:
        raise ValueError("prior_count must be finite and >= 0")
    data = np.asarray(data, dtype=int)
    if data.size == 0:
        data = data.reshape(0, len(structure.nodes))
    if data.ndim != 2 or data.shape[1] != len(structure.nodes):
        raise ValueError("data columns must match nodes")
    for i in range(len(structure.nodes)):
        if data.shape[0] and (data[:, i].min() < 0 or data[:, i].max() >= structure.n_bins(i)):
            raise ValueError(f"bin index out of range for node {structure.nodes[i]}")
    tables = []
    for i in range(len(structure.nodes)):
        nb = structure.n_bins(i)
        rows = structure.parent_row_count(i)
        counts = np.zeros((rows, nb))
        if data.shape[0]:
            np.add.at(counts, (structure.parent_rows(i, data), data[:, i]), 1.0)
        totals = counts.sum(axis=1, keepdims=True)
        denom = totals + prior_count * nb
        table = np.where(denom > 0, (counts + prior_count) / np.maximum(denom, 1e-300), 1.0 / nb)
        tables.append(table)
    return DiscreteBayesNet(
        nodes=structure.nodes,
        parents=structure.parents,
        bins=structure.bins,
        cpt=tuple(tables),
    )


def _draw_bin(probs: np.ndarray, rng: np.random.Generator) -> int:
    u = rng.random()
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), len(probs) - 1))


def ancestral_sample(
    net: DiscreteBayesNet,
    rng: np.random.Generator,
    given_bins: Optional[Dict[int, int]] = None,
) -> Assignment:
    """Sample every node in topological order.

    Nodes listed in given_bins are clamped: no CPT draw occurs, the clamped
    bin conditions downstream children, and the value slot is left NaN for
    the caller to fill.
    """
    if not net.is_fitted:
        raise ValueError("network has no fitted CPTs")
    given_bins = given_bins or {}
    n = len(net.nodes)
    bins = np.zeros(n, dtype=int)
    values = np.full(n, np.nan)
    for i in range(n):
        if i in given_bins:
            bins[i] = given_bins[i]
            continue
        row = net.parent_row_index(i, bins)
        b = _draw_bin(net.cpt[i][row], rng)
        bins[i] = b
        lo, hi = net.bins[i][b], net.bins[i][b + 1]
        values[i] = rng.uniform(lo, hi) if hi > lo else lo
    return Assignment(bins=bins, values=values)


def ancestral_sample_many(
    net: DiscreteBayesNet,
    u: np.ndarray,
    cursor: np.ndarray,
    bins: np.ndarray,
    values: np.ndarray,
    nodes: Optional[Sequence[int]] = None,
) -> None:
    """ancestral_sample for a batch, one row per generator, drawing from blocks.

    u[b] holds generator b's next uniforms and cursor[b] the first unused
    one; like ancestral_sample, each node takes one uniform for its bin and
    one more for its value only if the bin has width, so row b reproduces
    ancestral_sample on a generator whose random() calls return u[b] in
    order.  Only ``nodes`` are drawn (default: all); the other columns of
    ``bins`` are clamped inputs.  Writes ``bins`` and ``values`` of shape
    (B, nodes) in place and advances ``cursor``.
    """
    if not net.is_fitted:
        raise ValueError("network has no fitted CPTs")
    flat, start = u.ravel(), np.arange(0, u.size, u.shape[1])
    for i in range(len(net.nodes)) if nodes is None else nodes:
        # The count of cumulative probabilities <= u is _draw_bin's
        # searchsorted(side="right"), clamped the same way.
        cum = net.cum_cpt[i][net.parent_rows(i, bins)]
        at = start + cursor
        b = np.minimum((cum <= flat[at, None]).sum(axis=1), net.n_bins(i) - 1)
        lo, hi = net.bins[i][b], net.bins[i][b + 1]
        wide = hi > lo
        values[:, i] = np.where(wide, lo + (hi - lo) * flat[at + 1], lo)
        cursor += 1 + wide
        bins[:, i] = b


def log_prob_bins(
    net: DiscreteBayesNet,
    bins: Sequence[int],
    nodes: Optional[Sequence[int]] = None,
) -> float:
    """Sum of log CPT probabilities of the given bin assignment.

    Restricting ``nodes`` scores only those draws (used when part of the
    assignment was clamped rather than sampled).  A zero-probability bin
    yields -inf.
    """
    if not net.is_fitted:
        raise ValueError("network has no fitted CPTs")
    total = 0.0
    indices = range(len(net.nodes)) if nodes is None else nodes
    for i in indices:
        row = net.parent_row_index(i, bins)
        p = net.cpt[i][row][int(bins[i])]
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def net_to_dict(net: DiscreteBayesNet) -> dict:
    return {
        "nodes": list(net.nodes),
        "parents": [list(p) for p in net.parents],
        "bins": [[float(v) for v in e] for e in net.bins],
        "cpt": [t.tolist() for t in net.cpt] if net.is_fitted else [],
    }


def net_from_dict(d: dict) -> DiscreteBayesNet:
    return DiscreteBayesNet(
        nodes=tuple(d["nodes"]),
        parents=tuple(tuple(p) for p in d["parents"]),
        bins=tuple(np.asarray(e, dtype=float) for e in d["bins"]),
        cpt=tuple(np.asarray(t, dtype=float) for t in d["cpt"]) if d.get("cpt") else (),
    )
