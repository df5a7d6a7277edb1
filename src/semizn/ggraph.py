"""Directed labeled multigraphs on Z^n whose edges step by a fixed vector per
label.  An edge is (start vertex, label); its destination is always
start + steps[label-1].  Graphs are the combinatorial mirror of words over a
generator set: tracing a word's partial sums gives its graph, and an Euler
circuit of a suitable graph reads back a word.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping
from operator import add
from typing import Optional, Sequence

from semizn import linalg
from semizn.groebner import check_deadline
from semizn.group import GeneratorSet, GroupElement

_CHECK_EVERY = 4096  # letters, circuit steps, translations or translation-box points per deadline check


class StepGraph:
    """Immutable edge multiset over a fixed step table: `counts` maps each
    distinct edge (start, label), in sorted order, to its multiplicity.  The
    constructor takes such a mapping, or an iterable of parallel copies."""

    __slots__ = ("steps", "n", "K", "counts")

    def __init__(self, steps: Sequence[Sequence[int]], edges: Mapping | Iterable = ()):
        self.steps = tuple(tuple(int(v) for v in a) for a in steps)
        if not self.steps:
            raise ValueError("need at least one label")
        self.n = len(self.steps[0])
        if any(len(a) != self.n for a in self.steps):
            raise ValueError("inconsistent step lengths")
        self.K = len(self.steps)
        items = edges.items() if isinstance(edges, Mapping) else ((e, 1) for e in edges)
        counts = Counter()
        for (s, label), k in items:
            label = int(label)
            if not 1 <= label <= self.K:
                raise ValueError(f"label {label} out of range 1..{self.K}")
            s = tuple(int(v) for v in s)
            if len(s) != self.n:
                raise ValueError("edge start has wrong length")
            if k < 1:
                raise ValueError(f"multiplicity {k} of edge {(s, label)} is not positive")
            counts[s, label] += k
        self.counts = dict(sorted(counts.items()))

    def destination(self, edge) -> tuple:
        s, label = edge
        return tuple(a + b for a, b in zip(s, self.steps[label - 1]))

    def vertices(self) -> list[tuple]:
        return sorted({v for e in self.counts for v in (e[0], self.destination(e))})

    # -- predicates ----------------------------------------------------------
    def is_symmetric(self) -> bool:
        """Out-degree equals in-degree at every vertex."""
        bal = Counter()
        for e, k in self.counts.items():
            bal[e[0]] += k
            bal[self.destination(e)] -= k
        return all(v == 0 for v in bal.values())

    def is_full_image(self) -> bool:
        used = {label for _, label in self.counts}
        return used == set(range(1, self.K + 1))

    def is_zn_generating(self) -> bool:
        """Whether the edge steps generate Z^n as a group (read off their
        Hermite basis; for symmetric graphs the step semigroup is a group, so
        this is the semigroup property as well)."""
        present = sorted({self.steps[label - 1] for _, label in self.counts})
        _, full = linalg.lattice_rank_and_full([list(a) for a in present], self.n)
        return full

    def is_connected(self) -> bool:
        """Weak connectivity on the vertex set (every vertex touches an edge)."""
        verts = self.vertices()
        if len(verts) <= 1:
            return True
        index = {v: i for i, v in enumerate(verts)}
        parent = list(range(len(verts)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for e in self.counts:
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
        for (s, label), k in self.counts.items():
            g = gens.elements[label - 1]
            for j in range(pres.d):
                y[j] = y[j] + g.y[j].shift(s).scale(k)
            for i in range(self.n):
                a[i] += k * g.a[i]
        return GroupElement(pres, y, tuple(a))

    # -- Euler circuits --------------------------------------------------------
    def euler_circuit(self, start: Sequence[int]) -> Optional[list[int]]:
        """Label sequence of an Euler circuit from `start`, or None when the
        graph is not symmetric or not connected.  Ties are broken by smallest
        (destination vertex, label), so the output is deterministic.
        The deadline is checked before each of the two tests and every
        _CHECK_EVERY steps of the walk."""
        start = tuple(int(v) for v in start)
        if start not in self.vertices():
            raise ValueError(f"start {start} is not a vertex")
        for holds in (self.is_symmetric, self.is_connected):
            check_deadline()
            if not holds():
                return None
        adj = defaultdict(list)  # start -> [destination, label, copies left], least last
        for (s, label), k in self.counts.items():
            adj[s].append([self.destination((s, label)), label, k])
        for v in adj:
            adj[v].sort(reverse=True)
        stack: list[tuple] = [(start, None)]
        out_rev: list[int] = []
        steps = 0
        while stack:
            if not steps % _CHECK_EVERY:
                check_deadline()
            steps += 1
            v, incoming = stack[-1]
            out = adj.get(v)
            if out:
                edge = out[-1]
                edge[2] -= 1
                if not edge[2]:
                    out.pop()
                stack.append((edge[0], edge[1]))
            else:
                stack.pop()
                if incoming is not None:
                    out_rev.append(incoming)
        if len(out_rev) != sum(self.counts.values()):
            return None
        return out_rev[::-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepGraph)
            and self.steps == other.steps
            and self.counts == other.counts
        )

    def __hash__(self):
        return hash((self.steps, tuple(self.counts.items())))

    def __repr__(self):
        return f"StepGraph(edges={sum(self.counts.values())}, n={self.n}, K={self.K})"

    def to_dot(self) -> str:
        """Stable DOT text: vertex names v(x1,..,xn), one labeled line per copy."""
        def vname(v):
            return '"v(' + ",".join(str(x) for x in v) + ')"'

        lines = ["digraph stepgraph {"]
        for v in self.vertices():
            lines.append(f"  {vname(v)};")
        for (s, label), k in self.counts.items():
            lines += [f"  {vname(s)} -> {vname(self.destination((s, label)))} [label={label}];"] * k
        lines.append("}")
        return "\n".join(lines) + "\n"


def graph_of_word(gens_or_steps, word: Sequence[int]) -> StepGraph:
    """Graph traced by a word's lattice partial sums (edge j starts at the
    sum of the first j-1 steps, labeled by letter j).  The trace is connected
    and starts at 0, so it already is the component of the origin.  The
    edges are counted here from checked letters, so only the steps go through
    `StepGraph`'s checks; the deadline is checked every _CHECK_EVERY letters."""
    if not word:
        raise ValueError("empty word has no graph")
    steps = gens_or_steps.steps if isinstance(gens_or_steps, GeneratorSet) else gens_or_steps
    graph = StepGraph(steps)
    steps = graph.steps
    pos = (0,) * graph.n
    counts = Counter()
    for k, letter in enumerate(word):
        if not k % _CHECK_EVERY:
            check_deadline()
        if not 1 <= letter <= graph.K:
            raise ValueError(f"letter {letter} out of range")
        counts[pos, letter] += 1
        pos = tuple(map(add, pos, steps[letter - 1]))
    graph.counts = dict(sorted(counts.items()))
    return graph
