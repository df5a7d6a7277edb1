"""Directed labeled multigraphs on Z^n whose edges step by a fixed vector per
label.  An edge is (start vertex, label); its destination is always
start + steps[label-1].  Graphs are the combinatorial mirror of words over a
generator set: tracing a word's partial sums gives its graph, and an Euler
circuit of a suitable graph reads back a word.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from operator import add
from typing import Optional, Sequence

from semizn import linalg
from semizn.groebner import check_deadline
from semizn.group import GeneratorSet, GroupElement

_CHECK_EVERY = 4096  # letters or circuit steps between two deadline checks


class StepGraph:
    """Immutable edge multiset over a fixed step table."""

    __slots__ = ("steps", "n", "K", "edges")

    def __init__(self, steps: Sequence[Sequence[int]], edges):
        self.steps = tuple(tuple(int(v) for v in a) for a in steps)
        if not self.steps:
            raise ValueError("need at least one label")
        self.n = len(self.steps[0])
        if any(len(a) != self.n for a in self.steps):
            raise ValueError("inconsistent step lengths")
        self.K = len(self.steps)
        norm = []
        for s, label in edges:
            label = int(label)
            if not 1 <= label <= self.K:
                raise ValueError(f"label {label} out of range 1..{self.K}")
            s = tuple(int(v) for v in s)
            if len(s) != self.n:
                raise ValueError("edge start has wrong length")
            norm.append((s, label))
        self.edges = tuple(sorted(norm))

    def destination(self, edge) -> tuple:
        s, label = edge
        return tuple(a + b for a, b in zip(s, self.steps[label - 1]))

    def _vertex_set(self, distinct) -> set:
        """The starts and destinations of the distinct edges `distinct`.  The
        predicates walk each distinct (start, label) pair once, not every
        parallel copy; `is_symmetric` weights it by its count."""
        return {v for e in distinct for v in (e[0], self.destination(e))}

    def vertices(self) -> list[tuple]:
        return sorted(self._vertex_set(set(self.edges)))

    # -- predicates ----------------------------------------------------------
    def is_symmetric(self) -> bool:
        """Out-degree equals in-degree at every vertex."""
        bal = Counter()
        for e, k in Counter(self.edges).items():
            bal[e[0]] += k
            bal[self.destination(e)] -= k
        return all(v == 0 for v in bal.values())

    def is_full_image(self) -> bool:
        used = {label for _, label in self.edges}
        return used == set(range(1, self.K + 1))

    def is_zn_generating(self) -> bool:
        """Whether the edge steps generate Z^n as a group (read off their
        Hermite basis; for symmetric graphs the step semigroup is a group, so
        this is the semigroup property as well)."""
        present = sorted({self.steps[label - 1] for _, label in self.edges})
        _, full = linalg.lattice_rank_and_full([list(a) for a in present], self.n)
        return full

    def is_connected(self) -> bool:
        """Weak connectivity on the vertex set (every vertex touches an edge)."""
        distinct = set(self.edges)
        verts = self._vertex_set(distinct)
        if len(verts) <= 1:
            return True
        index = {v: i for i, v in enumerate(verts)}
        parent = list(range(len(verts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in distinct:
            a, b = find(index[e[0]]), find(index[self.destination(e)])
            if a != b:
                parent[a] = b
        roots = {find(i) for i in range(len(verts))}
        return len(roots) == 1

    # -- represented element ---------------------------------------------------
    def represented_element(self, gens: GeneratorSet) -> GroupElement:
        """The pair (sum over edges of X^{s(e)} y_label, sum of steps)."""
        if gens.steps != list(self.steps):
            raise ValueError("generator set does not match the graph's steps")
        pres = gens.presentation
        y = pres.zero_vector()
        a = [0] * self.n
        for s, label in self.edges:
            g = gens.elements[label - 1]
            for j in range(pres.d):
                y[j] = y[j] + g.y[j].shift(s)
            for i in range(self.n):
                a[i] += g.a[i]
        return GroupElement(pres, y, tuple(a))

    # -- Euler circuits --------------------------------------------------------
    def euler_circuit(self, start: Sequence[int], deadline=None) -> Optional[list[int]]:
        """Label sequence of an Euler circuit from `start`, or None when the
        graph is not symmetric or not connected.  Ties are broken by smallest
        (destination vertex, label), so the output is deterministic.
        `deadline` is checked before each of the two tests and every
        _CHECK_EVERY steps of the walk."""
        start = tuple(int(v) for v in start)
        if start not in self._vertex_set(set(self.edges)):
            raise ValueError(f"start {start} is not a vertex")
        for holds in (self.is_symmetric, self.is_connected):
            check_deadline(deadline)
            if not holds():
                return None
        adj = defaultdict(list)
        for idx, (s, label) in enumerate(self.edges):
            adj[s].append((self.destination((s, label)), label, idx))
        for v in adj:
            adj[v].sort()
        ptr = defaultdict(int)
        used = [False] * len(self.edges)
        stack: list[tuple] = [(start, None)]
        out_rev: list[int] = []
        steps = 0
        while stack:
            if not steps % _CHECK_EVERY:
                check_deadline(deadline)
            steps += 1
            v, incoming = stack[-1]
            moved = False
            lst = adj.get(v, ())
            while ptr[v] < len(lst):
                dest, label, idx = lst[ptr[v]]
                ptr[v] += 1
                if not used[idx]:
                    used[idx] = True
                    stack.append((dest, label))
                    moved = True
                    break
            if not moved:
                stack.pop()
                if incoming is not None:
                    out_rev.append(incoming)
        if len(out_rev) != len(self.edges):
            return None
        return out_rev[::-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepGraph)
            and self.steps == other.steps
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.steps, self.edges))

    def __repr__(self):
        return f"StepGraph(edges={len(self.edges)}, n={self.n}, K={self.K})"

    def to_dot(self) -> str:
        """Stable DOT text: vertex names v(x1,..,xn), labels on edges."""
        def vname(v):
            return '"v(' + ",".join(str(x) for x in v) + ')"'

        lines = ["digraph stepgraph {"]
        for v in self.vertices():
            lines.append(f"  {vname(v)};")
        for s, label in self.edges:
            lines.append(f"  {vname(s)} -> {vname(self.destination((s, label)))} [label={label}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def graph_of_word(gens_or_steps, word: Sequence[int], deadline=None) -> StepGraph:
    """Graph traced by a word's lattice partial sums (edge j starts at the
    sum of the first j-1 steps, labeled by letter j).  The trace is connected
    and starts at 0, so it already is the component of the origin.  The
    edges are built here from checked letters, so only the steps go through
    `StepGraph`'s checks.  `deadline` is checked every _CHECK_EVERY letters."""
    if not word:
        raise ValueError("empty word has no graph")
    steps = gens_or_steps.steps if isinstance(gens_or_steps, GeneratorSet) else gens_or_steps
    graph = StepGraph(steps, ())
    steps = graph.steps
    pos = (0,) * graph.n
    edges = []
    for k, letter in enumerate(word):
        if not k % _CHECK_EVERY:
            check_deadline(deadline)
        if not 1 <= letter <= graph.K:
            raise ValueError(f"letter {letter} out of range")
        edges.append((pos, letter))
        pos = tuple(map(add, pos, steps[letter - 1]))
    graph.edges = tuple(sorted(edges))
    return graph
