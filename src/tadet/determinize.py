"""Determinization of silent-free tree automata.

Two constructions are provided.  The guard-oriented one merges all
same-action edges of a location into at most two target locations (one
accepting, one not), pushing each edge's guard onto the subtree below it
as a diagonal constraint relative to the merge reset; the accepting and
non-accepting targets share their subtrees, so the result is a DAG.  Its
on-the-fly variant also shares locations with identical pending content,
and reads a DAG input as it would the tree that the DAG unfolds to:
:func:`pipeline_on_the_fly` merges the stripped unfolding built as a DAG,
so no stage before the merge pays for the full tree.
The standard one is a subset construction over guard regions and always
yields a tree; it walks each action's guard regions depth first on a
carried zone, so an empty prefix prunes every region below it.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Optional

from .core import (
    And,
    Atom,
    Clock,
    Guard,
    Or,
    StructuralError,
    Transition,
    conj,
    disj,
    guard_clocks,
    level_clock,
    map_atoms,
)
from .silent import stripped_unfolding
from .unfold import Tree, TreeNode
from . import solver


def rebase_guard(g: Guard, anchor: Clock) -> Guard:
    """Express ``g`` relative to a later reset of ``anchor``.

    A unary atom x~n, true when ``anchor`` was reset, holds at any later
    moment as x - anchor ~ n (no clock of a renamed tree is reset twice).
    Diagonal atoms are time-invariant and stay as they are.
    """

    def rebased(a: Atom) -> Guard:
        if a.right is not None:
            return a
        if a.left == anchor:
            raise StructuralError(f"guard mentions its own reset clock {anchor}")
        return Atom(a.left, a.rel, a.bound, anchor)

    return map_atoms(g, rebased)


# an edge of a pending (merged) location: action, guard, original tree node
# whose subtree hangs below it
_Edge = tuple[Optional[str], Guard, int]


def _group_by_action(edges: list[_Edge]) -> list[tuple[str, list[_Edge]]]:
    order: list[str] = []
    groups: dict[str, list[_Edge]] = {}
    for e in edges:
        a = e[0]
        if a is None:
            raise StructuralError("determinization requires a silent-free tree")
        if a not in groups:
            order.append(a)
            groups[a] = []
        groups[a].append(e)
    return [(a, groups[a]) for a in order]


def _guard_key(g: Guard):
    """Sharing key of a guard that ignores the order of its parts: the atom
    or constant itself, else (is a conjunction, frozenset of the part keys),
    with a single distinct part collapsed to that part's key."""
    if isinstance(g, (And, Or)):
        keys = frozenset(_guard_key(p) for p in g.parts)
        if len(keys) == 1:
            return next(iter(keys))
        return (isinstance(g, And), keys)
    return g


def _merge(tree: Tree, share: bool) -> Tree:
    """Merge same-action edges per location into accepting/non-accepting pairs.

    The two merged locations have identical outgoing behaviour, so they
    share one jointly constructed subtree; the output is a DAG over fresh
    location ids.  With ``share``, locations and their out-edges are also
    memoized on (level, acceptance, pending out-edges up to subtree
    identity), so a location reached along different traces with the same
    pending content is built once.
    """
    if not tree.renamed:
        raise StructuralError("determinization requires a renamed tree")
    children = tree.build_children_index()
    out = Tree(root=0, renamed=True)
    node_memo: dict = {}
    edge_memo: dict = {}
    # the same guards are tested many times over; the memo lives for this call
    sat = cache(solver.is_satisfiable)

    # structural signature of an input subtree, interned to small ints;
    # the entries are multisets, so equal out-edges in any order match
    sig_ids: dict = {}
    sig: dict[int, int] = {}

    def signature(nid: int) -> int:
        if nid in sig:
            return sig[nid]
        entry = (
            tree.nodes[nid].accepting,
            frozenset(Counter(
                (t.action, _guard_key(t.guard), t.resets, signature(t.target))
                for t in children[nid]
            ).items()),
        )
        sid = sig_ids.setdefault(entry, len(sig_ids))
        sig[nid] = sid
        return sid

    def content(edges: list[_Edge]):
        """Memo key of the pending ``edges``; None without sharing."""
        if not share:
            return None
        return frozenset(Counter(
            (a, _guard_key(g), signature(t)) for a, g, t in edges
        ).items())

    def pending(t: int) -> tuple[list[_Edge], object]:
        """The out-edges of input node ``t`` and their content."""
        edges = [(c.action, c.guard, c.target) for c in children[t]]
        return edges, content(edges)

    def node(edges: list[_Edge], key, level: int, accepting: bool, sub=None) -> int:
        """A location at ``level`` with ``edges`` (content ``key``) pending;
        ``sub``: its out-edges."""
        if share:
            memo_key = (level, accepting, key)
            if memo_key in node_memo:
                return node_memo[memo_key]
        nid = len(out.nodes)
        out.nodes[nid] = TreeNode(None, level, accepting=accepting)
        if share:
            node_memo[memo_key] = nid
        resets = frozenset((level_clock(level + 1),))
        for (a, g, t) in expand(edges, level, key) if sub is None else sub:
            out.transitions.append(Transition(nid, t, a, g, resets))
        return nid

    def expand(edges: list[_Edge], level: int, key) -> list[tuple[str, Guard, int]]:
        """Out-edges of the (merged) location at ``level`` with ``edges``
        pending, whose content is ``key``."""
        if share:
            memo_key = (level, key)
            if memo_key in edge_memo:
                return edge_memo[memo_key]
        result: list[tuple[str, Guard, int]] = []
        for action, group in _group_by_action(edges):
            if len(group) == 1:
                _, g, t = group[0]
                if sat(g):
                    nid = node(*pending(t), level + 1, tree.nodes[t].accepting)
                    result.append((action, g, nid))
                continue

            anchor = level_clock(level + 1)
            acc_guards: list[Guard] = []
            nacc_guards: list[Guard] = []
            merged_child: list[_Edge] = []
            for _, g, t in group:
                if not sat(g):
                    continue
                if tree.nodes[t].accepting:
                    acc_guards.append(g)
                else:
                    nacc_guards.append(g)
                push = rebase_guard(g, anchor)
                for c in children[t]:
                    cg = conj(c.guard, push)
                    if sat(cg):
                        merged_child.append((c.action, cg, c.target))

            child_key = content(merged_child)
            sub = expand(merged_child, level + 1, child_key)
            # each accepting guard is satisfiable, hence so is their disjunction
            if acc_guards:
                g_acc = disj(*acc_guards)
                nid = node(merged_child, child_key, level + 1, True, sub)
                result.append((action, g_acc, nid))
            if nacc_guards:
                g_nacc = disj(*nacc_guards)
                if acc_guards:
                    g_nacc = conj(g_nacc, solver.complement_guard(g_acc))
                if sat(g_nacc):
                    nid = node(merged_child, child_key, level + 1, False, sub)
                    result.append((action, g_nacc, nid))
        if share:
            edge_memo[memo_key] = result
        return result

    node(*pending(tree.root), 0, tree.nodes[tree.root].accepting)
    # the nested functions reach each other through their closures; drop
    # them so that the memos are freed on return, not at the next collection
    signature = node = expand = None
    return out


def determinize_guard_oriented(tree: Tree) -> Tree:
    """The guard-oriented merge; the output is a DAG over fresh location ids."""
    return _merge(tree, share=False)


def _regions(guards: list[Guard], comps: list[Guard]) -> list[int]:
    """The non-zero masks, ascending, whose region is non-empty: the
    conjunction of ``guards[i]`` for each set bit i and ``comps[i]``, the
    complement, for each clear one.

    A depth-first walk fixes bit m-1 first and bit 0 last, the complement
    before the guard, so the leaves come in ascending order.  A prefix
    carries the closed zone of its literals' atoms, their pending
    disjunctions and the branch, one zone, that its last search found.  A
    child searches its literal from the parent's branch first; only if that
    fails, and the prefix has disjunctions that another branch could meet,
    is the whole prefix searched again from the child's zone.  When the
    complement misses the branch, the branch lies inside the guard, which
    then needs no search.  An empty prefix cuts off every mask below it,
    and the all-zero path is never searched.
    """
    root = solver.nonneg_zone(frozenset().union(*map(guard_clocks, guards)))
    root.close()
    masks: list[int] = []
    # (bit to fix next, bits fixed so far, zone, pending disjunctions, branch)
    stack = [(len(guards) - 1, 0, root, [], root)]
    while stack:
        i, mask, zone, ors, branch = stack.pop()
        children = []
        missed = False
        for bit, lit in ((0, comps[i]), (1 << i, guards[i])):
            if not (mask or bit or i):
                continue  # the all-zero region yields no edge
            found = branch if missed else next(solver.feasible_systems(lit, branch), None)
            missed = found is None
            if missed and not ors:
                continue  # searched from the whole zone: the region is empty
            child, child_ors = found, ors  # without disjunctions the branch is the zone
            if i or missed:
                split = solver.split_parts([lit])
                if split is None:
                    continue
                child_ors = ors + split[1]
                if child_ors:
                    child = zone.copy()
                    for a in split[0]:
                        child.add_atom(a)
                    if missed:
                        found = next(solver.feasible_systems(conj(*child_ors), child), None)
                        if found is None:
                            continue
            if i:
                children.append((i - 1, mask | bit, child, child_ors, found))
            else:
                masks.append(mask | bit)
        stack.extend(reversed(children))  # the complement's subtree first
    return masks


def determinize_standard(tree: Tree) -> Tree:
    """Subset construction over guard regions.

    For each location and action with edges guarded g_1..g_m, every
    non-empty subset S yields one outgoing edge guarded by the g_i of S
    conjoined with the complements of the rest, if that region has a
    point (:func:`_regions` finds them, fixing one g_i or its complement
    per step); its target merges the member targets.  The output is a tree.
    """
    if not tree.renamed:
        raise StructuralError("determinization requires a renamed tree")
    children = tree.build_children_index()
    out = Tree(root=0, renamed=True)
    out.nodes[0] = TreeNode(None, 0, accepting=tree.nodes[tree.root].accepting)
    counter = [1]

    def build(members: frozenset[int], nid: int, level: int) -> None:
        edges: list[_Edge] = []
        for t in sorted(members):
            edges.extend((c.action, c.guard, c.target) for c in children[t])
        for action, group in _group_by_action(edges):
            m = len(group)
            guards = [g for _, g, _ in group]
            comps = [solver.complement_guard(g) for g in guards]
            for mask in _regions(guards, comps):
                guard = conj(
                    *(guards[i] for i in range(m) if mask >> i & 1),
                    *(comps[i] for i in range(m) if not mask >> i & 1),
                )
                targets = frozenset(group[i][2] for i in range(m) if mask >> i & 1)
                accepting = any(tree.nodes[t].accepting for t in targets)
                cid = counter[0]
                counter[0] += 1
                out.nodes[cid] = TreeNode(None, level + 1, accepting=accepting)
                out.transitions.append(
                    Transition(nid, cid, action, guard, frozenset((level_clock(level + 1),)))
                )
                build(targets, cid, level + 1)

    build(frozenset((tree.root,)), 0, 0)
    build = None  # its closure refers to itself; free the index on return
    return out


def determinize_on_the_fly(tree: Tree) -> Tree:
    """The guard-oriented merge that builds a location only once per (level,
    acceptance, pending out-edges up to subtree identity): a location reached
    along different traces with the same clock resets is shared, so the
    output DAG stays small where :func:`determinize_guard_oriented` copies
    subtrees."""
    return _merge(tree, share=True)


def pipeline_on_the_fly(a, k: int) -> Tree:
    """The staged pipeline on ``a`` at depth ``k``, determinized on the fly,
    with the stripped unfolding built as a DAG
    (:func:`tadet.silent.stripped_unfolding`): a location reached along
    different runs with the same clock resets is unfolded, renamed and
    stripped once.  The sharing merge reads the DAG as it would the tree,
    so the output is that of :func:`determinize_on_the_fly` on the staged
    tree."""
    return _merge(stripped_unfolding(a, k), share=True)


def check_deterministic(tree: Tree) -> bool:
    """True iff no two same-action edges of a location can fire together."""
    children = tree.build_children_index()
    for nid in tree.nodes:
        per_action: dict[str, list[Guard]] = {}
        for t in children[nid]:
            if t.is_silent:
                return False
            per_action.setdefault(t.action, []).append(t.guard)
        for guards in per_action.values():
            for i in range(len(guards)):
                for j in range(i + 1, len(guards)):
                    if solver.is_satisfiable(conj(guards[i], guards[j])):
                        return False
    return True
