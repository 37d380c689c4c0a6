"""Component affinity graph (CAG) — Li & Chen's representation of
inter-dimensional alignment preferences (paper Section 2.2.1).

A ``d``-dimensional array contributes ``d`` nodes ``(array, dim)``.
Weighted undirected edges connect dimensions of *distinct* arrays that are
coupled in a computation; the weight is the expected penalty (communication
volume) of not aligning them.

During weight construction the CAG is *directed* — edge directions track
the flow of values under the owner-computes rule, implementing the paper's
caching model (Section 3.1):

* first occurrence of a preference: record weight and direction;
* re-occurrence with the **same** direction: cached, no change;
* re-occurrence with the **opposite** direction: add the new cost and
  reverse the stored direction.

Once built, directions are dropped (:meth:`CAG.undirected`).

A *conflict* exists when two nodes of the same array are connected — such
a CAG cannot be turned into a valid alignment without cutting edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

Node = Tuple[str, int]  # (array name, 0-based dimension)


def _key(a: Node, b: Node) -> Tuple[Node, Node]:
    return (a, b) if a <= b else (b, a)


@dataclass
class CAG:
    """Mutable component affinity graph."""

    nodes: Set[Node] = field(default_factory=set)
    #: undirected edge key -> weight
    weights: Dict[Tuple[Node, Node], float] = field(default_factory=dict)
    #: edge key -> (src, dst); present only while directions are tracked
    directions: Dict[Tuple[Node, Node], Tuple[Node, Node]] = field(
        default_factory=dict
    )

    # -- construction -----------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.nodes.add(node)

    def add_array(self, array: str, rank: int) -> None:
        for dim in range(rank):
            self.nodes.add((array, dim))

    def add_preference(self, src: Node, dst: Node, cost: float) -> None:
        """Record a directed alignment preference (value flows src→dst)
        using the caching rule described in the module docstring."""
        if src[0] == dst[0]:
            raise ValueError("alignment preferences connect distinct arrays")
        self.nodes.add(src)
        self.nodes.add(dst)
        key = _key(src, dst)
        if key not in self.weights:
            self.weights[key] = cost
            self.directions[key] = (src, dst)
            return
        if self.directions.get(key) == (src, dst):
            return  # same direction: the communicated values are cached
        self.weights[key] += cost
        self.directions[key] = (src, dst)

    def undirected(self) -> "CAG":
        """Copy with edge directions dropped (end of weight building)."""
        return CAG(nodes=set(self.nodes), weights=dict(self.weights))

    def copy(self) -> "CAG":
        return CAG(
            nodes=set(self.nodes),
            weights=dict(self.weights),
            directions=dict(self.directions),
        )

    def scaled(self, factor: float) -> "CAG":
        """Copy with every edge weight multiplied by ``factor`` (used for
        the dominance scaling of import operations)."""
        return CAG(
            nodes=set(self.nodes),
            weights={k: w * factor for k, w in self.weights.items()},
        )

    # -- basic queries -----------------------------------------------------

    @property
    def arrays(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for array, _dim in sorted(self.nodes):
            seen.setdefault(array, None)
        return tuple(seen)

    def edges(self) -> List[Tuple[Node, Node, float]]:
        return [(a, b, w) for (a, b), w in sorted(self.weights.items())]

    @property
    def num_edges(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        return sum(self.weights.values())

    # -- components & conflicts ------------------------------------------

    def components(self) -> List[FrozenSet[Node]]:
        """Connected components (the alignment information of a
        conflict-free CAG), sorted for determinism."""
        parent: Dict[Node, Node] = {n: n for n in self.nodes}

        def find(x: Node) -> Node:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.weights:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: Dict[Node, Set[Node]] = {}
        for node in self.nodes:
            groups.setdefault(find(node), set()).add(node)
        return sorted(
            (frozenset(g) for g in groups.values()), key=lambda g: sorted(g)
        )

    def has_conflict(self) -> bool:
        """True when some component contains two dimensions of one array
        (there is a path between two nodes of the same array)."""
        return not Components().join(self)

    # -- merging ------------------------------------------------------------

    def absorb(self, other: "CAG") -> None:
        """In-place graph union: shared edges accumulate ``other``'s
        weight, new edges follow in ``other``'s order."""
        self.nodes |= other.nodes
        weights = self.weights
        for key, weight in other.weights.items():
            weights[key] = weights.get(key, 0.0) + weight

    @staticmethod
    def merge(*cags: "CAG") -> "CAG":
        """Graph union; weights of shared edges accumulate."""
        merged = CAG()
        for cag in cags:
            merged.absorb(cag)
        return merged

    def restricted(self, arrays: Iterable[str]) -> "CAG":
        """Sub-CAG induced by the given arrays (the paper's restriction of
        an imported candidate to the sink class's arrays)."""
        keep = set(arrays)
        nodes = {n for n in self.nodes if n[0] in keep}
        weights = {
            key: w
            for key, w in self.weights.items()
            if key[0][0] in keep and key[1][0] in keep
        }
        return CAG(nodes=nodes, weights=weights)

    def drop_edges(self, keys: Iterable[Tuple[Node, Node]]) -> "CAG":
        dropped = set(keys)
        return CAG(
            nodes=set(self.nodes),
            weights={
                k: w for k, w in self.weights.items() if k not in dropped
            },
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"CAG({len(self.nodes)} nodes, {self.num_edges} edges)"]
        for (a, b), w in sorted(self.weights.items()):
            lines.append(f"  {a[0]}[{a[1]}] -- {b[0]}[{b[1]}]  w={w:g}")
        return "\n".join(lines)


class Components:
    """Union-find over the nodes of CAGs joined one after another, each
    root holding the arrays of its component: an edge conflicts the
    moment it would join two components that share an array.  A refused
    join leaves the structure half-joined, so its caller starts a new
    one (a conflict closes the class being grown)."""

    def __init__(self) -> None:
        self.parent: Dict[Node, Node] = {}
        #: root -> the arrays of its component (one node each)
        self.arrays: Dict[Node, Set[str]] = {}

    def find(self, node: Node) -> Node:
        parent = self.parent
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def join(self, cag: CAG) -> bool:
        """Add ``cag``'s nodes and edges; False if the union has a
        conflict."""
        parent, arrays = self.parent, self.arrays
        for node in cag.nodes:
            if node not in parent:
                parent[node] = node
                arrays[node] = {node[0]}
        for a, b in cag.weights:
            ra, rb = self.find(a), self.find(b)
            if ra == rb:
                continue
            if not arrays[ra].isdisjoint(arrays[rb]):
                return False
            if len(arrays[ra]) > len(arrays[rb]):
                ra, rb = rb, ra
            parent[ra] = rb
            arrays[rb] |= arrays.pop(ra)
        return True
