"""Compressed-sparse-row graph representation.

This mirrors the ECL graph format used by every code in the paper: a
``row_offsets`` array of length ``n + 1`` and a ``col_indices`` array of
length ``m`` (directed edge count).  Undirected graphs store each edge
in both directions, which is why Table II's edge counts are twice the
undirected edge count.

Optional integer edge weights support MST and APSP.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import GraphError


class CSRGraph:
    """An immutable graph in CSR form.

    Parameters
    ----------
    row_offsets:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, starting at 0 and ending at ``num_edges``.
    col_indices:
        ``int32`` array of neighbor ids, grouped per source vertex.
    directed:
        Whether the graph is directed.  Undirected graphs must contain
        both ``(u, v)`` and ``(v, u)`` for every edge.
    weights:
        Optional ``int64`` array parallel to ``col_indices``.
    name:
        Optional label used in reports.
    """

    def __init__(
        self,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        directed: bool,
        weights: np.ndarray | None = None,
        name: str = "",
    ) -> None:
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=np.int32)
        self.directed = bool(directed)
        self.weights = (
            None if weights is None else np.ascontiguousarray(weights, dtype=np.int64)
        )
        self.name = name
        self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        directed: bool,
        weights: Iterable[int] | np.ndarray | None = None,
        name: str = "",
        symmetrize: bool = False,
        dedupe: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        With ``symmetrize=True`` every edge ``(u, v)`` also inserts
        ``(v, u)`` (with the same weight); self-loops are dropped and,
        with ``dedupe=True`` (the default), parallel edges collapse to
        one (keeping the minimum weight, as MST semantics require).
        """
        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphError(f"edge array must have shape (m, 2), got {edge_arr.shape}")
        src = edge_arr[:, 0].astype(np.int64)
        dst = edge_arr[:, 1].astype(np.int64)
        if weights is None:
            wgt = None
        else:
            wgt = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                             dtype=np.int64)
            if wgt.shape[0] != src.shape[0]:
                raise GraphError("weights length must match edge count")

        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if wgt is not None:
                wgt = np.concatenate([wgt, wgt])

        keep = src != dst  # drop self-loops
        src, dst = src[keep], dst[keep]
        if wgt is not None:
            wgt = wgt[keep]

        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphError("negative vertex id in edge list")
        if src.size and max(src.max(), dst.max()) >= num_vertices:
            raise GraphError(
                f"vertex id exceeds num_vertices={num_vertices} in edge list"
            )

        if dedupe and src.size:
            key = src * np.int64(num_vertices) + dst
            if wgt is None:
                # an unweighted edge is its key: sort the keys alone
                key.sort()
            else:
                # keep minimum weight among duplicates: within equal keys,
                # sort by weight then take the first occurrence
                order = np.lexsort((wgt, key))
                key, wgt = key[order], wgt[order]
            first = np.ones(key.shape[0], dtype=bool)
            first[1:] = key[1:] != key[:-1]
            src, dst = np.divmod(key[first], num_vertices)
            if wgt is not None:
                wgt = wgt[first]
        if not dedupe:
            # dedupe leaves the edges sorted by src * n + dst with
            # 0 <= dst < n, which is already (src, dst) order
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            if wgt is not None:
                wgt = wgt[order]

        row_offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        counts = np.bincount(src, minlength=num_vertices)
        row_offsets[1:] = np.cumsum(counts)
        return cls(row_offsets, dst.astype(np.int32), directed=directed,
                   weights=wgt, name=name)

    @classmethod
    def empty(cls, num_vertices: int, directed: bool = False, name: str = "") -> "CSRGraph":
        """An edgeless graph on ``num_vertices`` vertices."""
        return cls(
            np.zeros(num_vertices + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            directed=directed,
            name=name,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.row_offsets.shape[0] - 1

    @property
    def num_edges(self) -> int:
        """Directed edge count (Table II/III convention)."""
        return self.col_indices.shape[0]

    @property
    def has_weights(self) -> bool:
        return self.weights is not None

    def fingerprint(self) -> str:
        """Stable content digest of the graph (structure + weights).

        Two graphs share a fingerprint iff they have identical CSR
        arrays, weights, and direction — names are *not* included, so
        the study framework can detect two different graphs trying to
        reuse one name.  Cached: the graph is immutable by contract.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            import hashlib

            h = hashlib.sha256()
            h.update(b"directed" if self.directed else b"undirected")
            h.update(self.row_offsets.tobytes())
            h.update(self.col_indices.tobytes())
            if self.weights is not None:
                h.update(self.weights.tobytes())
            cached = h.hexdigest()
            self._fingerprint = cached
        return cached

    def degree(self, v: int) -> int:
        """Out-degree of ``v``."""
        self._check_vertex(v)
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View of ``v``'s neighbor ids (do not mutate)."""
        self._check_vertex(v)
        return self.col_indices[self.row_offsets[v]:self.row_offsets[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        """View of weights of ``v``'s out-edges."""
        if self.weights is None:
            raise GraphError(f"graph {self.name!r} has no weights")
        self._check_vertex(v)
        return self.weights[self.row_offsets[v]:self.row_offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        """Out-degrees of every vertex as an ``int64`` array."""
        return np.diff(self.row_offsets)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all directed edges as ``(u, v)`` pairs."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                yield u, int(v)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(sources, destinations)`` arrays of every edge."""
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=np.int32), self.degrees()
        )
        return sources, self.col_indices.copy()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "CSRGraph":
        """Transpose (reverse every edge).  Needed by SCC's backward pass."""
        src, dst = self.edge_array()
        return CSRGraph.from_edges(
            self.num_vertices,
            np.stack([dst.astype(np.int64), src.astype(np.int64)], axis=1),
            directed=self.directed,
            weights=self.weights,
            name=f"{self.name}^T" if self.name else "",
            dedupe=False,
        )

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Copy of this graph carrying the given per-edge weights."""
        return CSRGraph(self.row_offsets, self.col_indices, self.directed,
                        weights=weights, name=self.name)

    def with_random_weights(self, seed: int, max_weight: int = 10_000) -> "CSRGraph":
        """Copy with symmetric pseudo-random integer weights in [1, max_weight].

        The weight of an undirected edge is derived from the unordered
        vertex pair so that both CSR directions carry the same weight —
        a requirement for MST correctness.
        """
        src, dst = self.edge_array()
        lo = np.minimum(src, dst).astype(np.uint64)
        hi = np.maximum(src, dst).astype(np.uint64)
        with np.errstate(over="ignore"):
            mix = (lo * np.uint64(0x9E3779B97F4A7C15)
                   + hi * np.uint64(0xC2B2AE3D27D4EB4F))
            mix ^= np.uint64((seed * 0xD6E8FEB86659FD93) & 0xFFFFFFFFFFFFFFFF)
            mix ^= mix >> np.uint64(33)
            mix *= np.uint64(0xFF51AFD7ED558CCD)
            mix ^= mix >> np.uint64(33)
        weights = (mix % np.uint64(max_weight)).astype(np.int64) + 1
        return self.with_weights(weights)

    def to_networkx(self):
        """Convert to a networkx graph (for verification only)."""
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        src, dst = self.edge_array()
        if self.weights is not None:
            g.add_weighted_edges_from(
                zip(src.tolist(), dst.tolist(), self.weights.tolist())
            )
        else:
            g.add_edges_from(zip(src.tolist(), dst.tolist()))
        return g

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range [0, {self.num_vertices})")

    def _validate(self) -> None:
        off = self.row_offsets
        if off.ndim != 1 or off.shape[0] < 1:
            raise GraphError("row_offsets must be a 1-D array of length >= 1")
        if off[0] != 0:
            raise GraphError("row_offsets must start at 0")
        if np.any(np.diff(off) < 0):
            raise GraphError("row_offsets must be non-decreasing")
        if off[-1] != self.col_indices.shape[0]:
            raise GraphError(
                f"row_offsets end ({off[-1]}) != edge count ({self.col_indices.shape[0]})"
            )
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.num_vertices:
                raise GraphError("col_indices contains out-of-range vertex id")
        if self.weights is not None and self.weights.shape[0] != self.num_edges:
            raise GraphError("weights length must equal edge count")

    def check_symmetric(self) -> bool:
        """True iff for every edge (u, v) the reverse edge (v, u) exists."""
        src, dst = self.edge_array()
        fwd = set(zip(src.tolist(), dst.tolist()))
        return all((v, u) in fwd for (u, v) in fwd)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} {kind} |V|={self.num_vertices} |E|={self.num_edges}"
            f"{' weighted' if self.has_weights else ''}>"
        )
