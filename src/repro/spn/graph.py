"""The validated SPN graph container.

:class:`SPN` wraps a root node, computes a topological evaluation order
once, and exposes the structural predicates the SPN literature (and the
hardware compiler) relies on:

* **completeness / smoothness** — every sum node's children share the
  same scope;
* **decomposability** — every product node's children have pairwise
  disjoint scopes;
* **validity** — both of the above, which guarantees that the network
  computes an (unnormalised) probability distribution and that marginal
  inference is a single bottom-up pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SPNStructureError
from repro.spn.nodes import LeafNode, Node, ProductNode, SumNode

if TYPE_CHECKING:  # networkx is imported where it is used: to_networkx()
    import networkx as nx

__all__ = ["SPN"]


class SPN:
    """An immutable, validated Sum-Product Network.

    Parameters
    ----------
    root:
        Root node of the DAG.
    name:
        Optional label used in serialisation and reports.
    validate:
        When true (default) the constructor checks that the structure is
        a DAG and *valid* (smooth + decomposable), raising
        :class:`~repro.errors.SPNStructureError` otherwise.
    """

    def __init__(self, root: Node, name: str = "spn", validate: bool = True):
        if not isinstance(root, Node):
            raise SPNStructureError(f"root must be a Node, got {type(root).__name__}")
        self.root = root
        self.name = name
        self._order = self._topological_order()
        if validate:
            self.validate()

    # -- iteration ----------------------------------------------------------------
    def _topological_order(self) -> List[Node]:
        """Children-before-parents order; also detects cycles."""
        order: List[Node] = []
        state: Dict[int, int] = {}  # 0 = visiting, 1 = done
        stack: List[Tuple[Node, int]] = [(self.root, 0)]
        while stack:
            node, child_index = stack.pop()
            if child_index == 0:
                existing = state.get(node.id)
                if existing == 1:
                    continue
                if existing == 0:
                    raise SPNStructureError(f"cycle detected through node {node.id}")
                state[node.id] = 0
            if child_index < len(node.children):
                stack.append((node, child_index + 1))
                child = node.children[child_index]
                if state.get(child.id) == 0:
                    raise SPNStructureError(f"cycle detected through node {child.id}")
                if state.get(child.id) != 1:
                    stack.append((child, 0))
            else:
                state[node.id] = 1
                order.append(node)
        return order

    @property
    def nodes(self) -> List[Node]:
        """All nodes, children before parents (evaluation order)."""
        return list(self._order)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    @property
    def leaves(self) -> List[LeafNode]:
        """All leaf nodes in evaluation order."""
        return [n for n in self._order if isinstance(n, LeafNode)]

    @property
    def sum_nodes(self) -> List[SumNode]:
        """All sum nodes in evaluation order."""
        return [n for n in self._order if isinstance(n, SumNode)]

    @property
    def product_nodes(self) -> List[ProductNode]:
        """All product nodes in evaluation order."""
        return [n for n in self._order if isinstance(n, ProductNode)]

    @property
    def scope(self) -> Tuple[int, ...]:
        """Variable indices of the whole network."""
        return self.root.scope

    @property
    def n_variables(self) -> int:
        """Number of random variables the SPN models."""
        return len(self.scope)

    # -- validation ---------------------------------------------------------------
    def validate(self) -> None:
        """Check SPN validity; raise :class:`SPNStructureError` on failure."""
        scopes: Dict[int, frozenset] = {}
        for node in self._order:
            if isinstance(node, LeafNode):
                scopes[node.id] = frozenset((node.variable,))
            elif isinstance(node, SumNode):
                child_scopes = {scopes[c.id] for c in node.children}
                if len(child_scopes) != 1:
                    raise SPNStructureError(
                        f"sum node {node.id} is not smooth: children scopes differ "
                        f"({sorted(tuple(sorted(s)) for s in child_scopes)})"
                    )
                scopes[node.id] = next(iter(child_scopes))
            elif isinstance(node, ProductNode):
                union: set = set()
                total = 0
                for child in node.children:
                    child_scope = scopes[child.id]
                    total += len(child_scope)
                    union |= child_scope
                if len(union) != total:
                    raise SPNStructureError(
                        f"product node {node.id} is not decomposable: child scopes overlap"
                    )
                scopes[node.id] = frozenset(union)
            else:
                raise SPNStructureError(
                    f"unknown node type {type(node).__name__} in graph"
                )

    def _scope_map(self) -> Dict[int, frozenset]:
        scopes: Dict[int, frozenset] = {}
        for node in self._order:
            if isinstance(node, LeafNode):
                scopes[node.id] = frozenset((node.variable,))
            else:
                merged: set = set()
                for child in node.children:
                    merged |= scopes[child.id]
                scopes[node.id] = frozenset(merged)
        return scopes

    def is_smooth(self) -> bool:
        """True when all sum nodes have scope-identical children."""
        scopes = self._scope_map()
        for node in self.sum_nodes:
            child_scopes = {scopes[c.id] for c in node.children}
            if len(child_scopes) != 1:
                return False
        return True

    def is_decomposable(self) -> bool:
        """True when all product nodes have disjoint child scopes."""
        scopes = self._scope_map()
        for node in self.product_nodes:
            total = sum(len(scopes[c.id]) for c in node.children)
            union = set()
            for child in node.children:
                union |= scopes[child.id]
            if len(union) != total:
                return False
        return True

    # -- views --------------------------------------------------------------------
    def to_networkx(self) -> "nx.DiGraph":
        """Export the structure as a :class:`networkx.DiGraph`.

        Node attributes carry ``kind`` plus the per-kind parameters;
        edges point from parent to child and sum edges carry ``weight``.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for node in self._order:
            attrs = {"kind": node.kind}
            if isinstance(node, LeafNode):
                attrs["variable"] = node.variable
            graph.add_node(node.id, **attrs)
            if isinstance(node, SumNode):
                for child, weight in zip(node.children, node.weights):
                    graph.add_edge(node.id, child.id, weight=float(weight))
            else:
                for child in node.children:
                    graph.add_edge(node.id, child.id)
        return graph

    def depth(self) -> int:
        """Longest root-to-leaf path length in edges."""
        depths: Dict[int, int] = {}
        for node in self._order:
            if not node.children:
                depths[node.id] = 0
            else:
                depths[node.id] = 1 + max(depths[c.id] for c in node.children)
        return depths[self.root.id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SPN {self.name!r}: {len(self)} nodes, "
            f"{self.n_variables} variables, depth {self.depth()}>"
        )
