"""k-bounded unfolding into a finite tree and one-reset-per-transition
clock renaming.

The tree is the normal form every later transformation requires: each path
carries at most k observable transitions, the i-th observable transition of
a path resets x_i and the j-th consecutive silent transition after
observable level i resets x_{i,j}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional

from .core import (
    Clock,
    Guard,
    StructuralError,
    TimedAutomaton,
    Transition,
    X0,
    check_strong_responsiveness,
    guard_clocks,
    level_clock,
    make_automaton,
    rename_guard,
    silent_clock,
)


@dataclass
class TreeNode:
    origin: Hashable  # location of the source automaton; None in determinized outputs
    obs_level: int
    silent_index: Optional[int] = None  # position in its silent chain, if silent-reached
    accepting: bool = False


@dataclass
class Tree:
    """Tree-shaped (or, after determinization, DAG-shaped) timed automaton."""

    root: int
    nodes: dict[int, TreeNode] = field(default_factory=dict)
    transitions: list[Transition] = field(default_factory=list)
    renamed: bool = False

    # -- structure ---------------------------------------------------------

    def build_children_index(self) -> dict[int, list[Transition]]:
        idx: dict[int, list[Transition]] = {n: [] for n in self.nodes}
        for t in self.transitions:
            idx[t.source].append(t)
        return idx

    def post_order(self, children: dict[int, list[Transition]]) -> Iterator[int]:
        """Each node under the root once, after every node below it, without recursion."""
        seen: set[int] = set()
        stack = [(self.root, False)]
        while stack:
            nid, done = stack.pop()
            if done:
                yield nid
            elif nid not in seen:
                seen.add(nid)
                stack += [(nid, True)] + [(t.target, False) for t in children[nid]]

    def clocks(self) -> frozenset[Clock]:
        cs: set[Clock] = {X0} if self.renamed else set()
        for t in self.transitions:
            cs |= guard_clocks(t.guard)
            cs |= set(t.resets)
        return frozenset(cs)

    @property
    def accepting(self) -> frozenset[int]:
        return frozenset(n for n, info in self.nodes.items() if info.accepting)

    def location_count(self) -> int:
        return len(self.nodes)

    def transition_count(self) -> int:
        return len(self.transitions)

    def silent_count(self) -> int:
        return sum(1 for t in self.transitions if t.is_silent)

    def is_tree(self) -> bool:
        seen: set[int] = set()
        for t in self.transitions:
            if t.target in seen or t.target == self.root:
                return False
            seen.add(t.target)
        return True

    def to_automaton(self) -> TimedAutomaton:
        return make_automaton(
            locations=self.nodes.keys(),
            initial=self.root,
            accepting=self.accepting,
            clocks=self.clocks(),
            transitions=self.transitions,
        )


# ---------------------------------------------------------------------------
# unfolding


def unfold(a: TimedAutomaton, k: int) -> Tree:
    """Unfold ``a`` into the tree of all runs with at most k observable steps.

    Cutting convention: silent transitions are expanded only from nodes at
    observable level < k, so no trailing silent steps are ever created
    (well-behaving runs end with an observable action).  A node reached by
    a silent transition is never accepting, even if it copies an accepting
    location.
    """
    out_edges = _out_edges(a, k)
    tree = Tree(root=0)
    tree.nodes[0] = TreeNode(
        origin=a.initial,
        obs_level=0,
        accepting=a.initial in a.accepting,
    )
    next_id = 1
    # depth-first in transition-list order for deterministic ids
    stack: list[int] = [0]
    while stack:
        nid = stack.pop()
        info = tree.nodes[nid]
        if info.obs_level >= k:
            continue
        children: list[int] = []
        for t in out_edges.get(info.origin, ()):
            cid = next_id
            next_id += 1
            if t.is_silent:
                prev = info.silent_index
                tree.nodes[cid] = TreeNode(
                    origin=t.target,
                    obs_level=info.obs_level,
                    silent_index=0 if prev is None else prev + 1,
                    accepting=False,
                )
            else:
                tree.nodes[cid] = TreeNode(
                    origin=t.target,
                    obs_level=info.obs_level + 1,
                    accepting=t.target in a.accepting,
                )
            tree.transitions.append(
                Transition(nid, cid, t.action, t.guard, t.resets)
            )
            children.append(cid)
        stack.extend(reversed(children))
    return tree


def _out_edges(a: TimedAutomaton, k: int) -> dict[Hashable, list[Transition]]:
    """The out-edges of each location of ``a``, in transition-list order,
    once ``a`` and ``k`` pass the checks of every unfolding."""
    if k < 1:
        raise ValueError("unfolding depth k must be >= 1")
    if not check_strong_responsiveness(a):
        raise StructuralError("automaton contains a silent loop (not strongly responsive)")
    out_edges: dict[Hashable, list[Transition]] = {}
    for t in a.transitions:
        out_edges.setdefault(t.source, []).append(t)
    return out_edges


def prune_nonaccepting(tree: Tree) -> None:
    """Drop, in place, every node but the root that reaches no accepting
    one, in one bottom-up pass over each node of a DAG."""
    children = tree.build_children_index()
    live: dict[int, bool] = {}
    for nid in tree.post_order(children):
        live[nid] = tree.nodes[nid].accepting or any(live[t.target] for t in children[nid])
    tree.nodes = {n: i for n, i in tree.nodes.items() if live.get(n) or n == tree.root}
    tree.transitions = [t for t in tree.transitions if live.get(t.source) and live[t.target]]


# ---------------------------------------------------------------------------
# clock renaming


def rename_clocks(t: Tree) -> Tree:
    """Rewrite to the normal form with exactly one fresh clock per transition.

    The i-th observable transition on a root path resets x_i; the j-th
    consecutive silent transition after observable level i resets x_{i,j}.
    Guard atoms are substituted by the clock of their most recent reset
    (x_0 when never reset).  Language-preserving.

    Each distinct renamed guard is built once per call: a table that lives
    for the call maps (input guard, the renamed clocks that its own clocks
    map to) to the renamed guard, so every tree copy of an edge holds the
    same guard object.
    """
    if not t.is_tree():
        raise StructuralError("clock renaming requires a tree")

    out = Tree(root=t.root, renamed=True)
    for nid, info in t.nodes.items():
        out.nodes[nid] = TreeNode(info.origin, info.obs_level, info.silent_index,
                                  info.accepting)

    out_edges: dict[int, list[int]] = {n: [] for n in t.nodes}
    for i, tr in enumerate(t.transitions):
        out_edges[tr.source].append(i)
    renamed: list[Optional[Transition]] = [None] * len(t.transitions)

    root_subst = {c: X0 for tr in t.transitions for c in guard_clocks(tr.guard) | set(tr.resets)}
    # each input guard's clocks, sorted, and its renamed guards by the
    # clocks that those map to
    shared: dict[Guard, tuple[tuple[Clock, ...], dict[tuple[Clock, ...], Guard]]] = {}
    stack: list[tuple[int, dict[Clock, Clock]]] = [(t.root, root_subst)]
    while stack:
        nid, subst = stack.pop()
        info = t.nodes[nid]
        for i in out_edges[nid]:
            tr = t.transitions[i]
            if tr.is_silent:
                j = t.nodes[tr.target].silent_index
                fresh = silent_clock(info.obs_level, j if j is not None else 0)
            else:
                fresh = level_clock(t.nodes[tr.target].obs_level)
            found = shared.get(tr.guard)
            if found is None:
                found = shared[tr.guard] = (tuple(sorted(guard_clocks(tr.guard))), {})
            cs, renamed_by = found
            key = tuple(subst[c] for c in cs)
            guard = renamed_by.get(key)
            if guard is None:
                guard = renamed_by[key] = rename_guard(tr.guard, subst)
            sub2 = dict(subst)
            for c in tr.resets:
                sub2[c] = fresh
            renamed[i] = Transition(tr.source, tr.target, tr.action, guard, frozenset((fresh,)))
            stack.append((tr.target, sub2))
    out.transitions = [tr for tr in renamed if tr is not None]
    return out
