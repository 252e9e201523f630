"""Determinization of silent-free tree automata.

Two constructions are provided.  The guard-oriented one merges all
same-action edges of a location into at most two target locations (one
accepting, one not), pushing each edge's guard onto the subtree below it
as a diagonal constraint relative to the merge reset; the accepting and
non-accepting targets share their subtrees, so the result is a DAG.  It
merges each (level, pending content) once per call and copies the block
that it built where the content repeats.  Its on-the-fly variant shares
those locations instead of copying them, and reads a DAG input as it
would the tree that the DAG unfolds to: :func:`pipeline_on_the_fly`
merges the stripped unfolding built as a DAG, so no stage before the
merge pays for the full tree.
The standard one is a subset construction over guard regions; it walks
each action's guard regions depth first on a carried zone, so an empty
prefix prunes every region below it.  The walk starts from the zone that
the location carries, which holds every clock valuation at which a run
enters it, so a region that no run reaches yields no edge.  A location is
built once per level, member set and zone, so its output is a DAG too.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from typing import Iterator, Optional

from .core import (
    Atom,
    Clock,
    Guard,
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


def _reaches_outside(nacc: list[Guard], acc: list[Guard], zones) -> bool:
    """Whether some non-negative point over the guards' joint clocks
    satisfies a guard of ``nacc`` and none of ``acc``; ``zones(g, True)``
    gives every feasible zone of ``g``.

    The zones are put over the joint clocks (a clock that a guard does not
    read is only >= 0) and the union of ``acc``'s is subtracted from each
    of ``nacc``'s (:func:`tadet.solver.uncovered_piece`), so the
    complement of ``acc`` is never searched as a formula.
    """
    clocks = frozenset().union(*(guard_clocks(g) for g in nacc + acc))

    def federation(guards: list[Guard]) -> list[solver.DifferenceSystem]:
        return [z.over(clocks) for g in guards for z in zones(g, True)]

    return solver.uncovered_piece(federation(nacc), federation(acc)) is not None


def _merge(tree: Tree, share: bool) -> Tree:
    """Merge same-action edges per location into accepting/non-accepting pairs.

    The two merged locations have identical outgoing behaviour, so they
    share one jointly constructed subtree; the output is a DAG over fresh
    location ids.  A location's out-edges depend only on its level and its
    pending out-edges up to subtree identity (its content), so each (level,
    content) is expanded once per call.  With ``share``, locations are also
    memoized on (level, acceptance, content), so a location reached along
    different traces with the same pending content is built once, and a
    repeated expansion returns the first one's out-edges.  Without it, a
    repeated expansion copies the block of locations and transitions that
    the first one appended, every id shifted to fresh ones: a subtree built
    without sharing refers only to locations inside its own block, so the
    copy is what a fresh expansion would number and emit.  Out-edges are
    compared in order: every copy of an input subtree, in the tree or in
    the DAG that :func:`tadet.silent.stripped_unfolding` builds, has the
    same ordered out-edges.
    """
    if not tree.renamed:
        raise StructuralError("determinization requires a renamed tree")
    children = tree.build_children_index()
    out = Tree(root=0, renamed=True)
    node_memo: dict = {}
    # (level, content) -> its out-edges and the ranges of locations and
    # transitions that its first expansion appended
    edge_memo: dict = {}
    # the same guards are tested many times over; the memos live for this call
    sat = cache(solver.is_satisfiable)

    @cache
    def search(g: Guard) -> tuple[list[solver.DifferenceSystem], Iterator]:
        return [], solver.feasible_systems(g)

    def zones(g: Guard, every: bool = False) -> list[solver.DifferenceSystem]:
        """The feasible zones of the member guard ``g``, searched lazily: the
        first for a check, all of them (``every``) for a subtraction."""
        found, rest = search(g)
        if every or not found:
            found.extend(rest if every else islice(rest, 1))
        return found

    # structural signature of an input subtree, interned to small ints:
    # its acceptance and its ordered out-edges, each with its target's
    # signature
    sig_ids: dict = {}
    sig: dict[int, int] = {}

    def signature(nid: int) -> int:
        if nid in sig:
            return sig[nid]
        entry = (
            tree.nodes[nid].accepting,
            tuple((t.action, t.guard, t.resets, signature(t.target)) for t in children[nid]),
        )
        sid = sig_ids.setdefault(entry, len(sig_ids))
        sig[nid] = sid
        return sid

    def content(edges: list[_Edge]):
        """Memo key of the pending ``edges``."""
        return tuple((a, g, signature(t)) for a, g, t in edges)

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

    def copy(
        result: list[tuple[str, Guard, int]], n0: int, n1: int, e0: int, e1: int
    ) -> list[tuple[str, Guard, int]]:
        """Append the locations ``[n0, n1)`` and transitions ``[e0, e1)``
        again under fresh ids; ``result`` with its targets renumbered."""
        shift = len(out.nodes) - n0
        for nid in range(n0, n1):
            n = out.nodes[nid]
            out.nodes[nid + shift] = TreeNode(None, n.obs_level, accepting=n.accepting)
        out.transitions.extend(
            Transition(t.source + shift, t.target + shift, t.action, t.guard, t.resets)
            for t in out.transitions[e0:e1]
        )
        return [(a, g, t + shift) for a, g, t in result]

    def expand(edges: list[_Edge], level: int, key) -> list[tuple[str, Guard, int]]:
        """Out-edges of the (merged) location at ``level`` with ``edges``
        pending, whose content is ``key``."""
        memo_key = (level, key)
        hit = edge_memo.get(memo_key)
        if hit is not None:
            return hit[0] if share else copy(*hit)
        n0, e0 = len(out.nodes), len(out.transitions)
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
                if not zones(g):
                    continue
                if tree.nodes[t].accepting:
                    acc_guards.append(g)
                else:
                    nacc_guards.append(g)
                push = rebase_guard(g, anchor)
                for c in children[t]:
                    cg = conj(c.guard, push)
                    if zones(cg):
                        merged_child.append((c.action, cg, c.target))

            child_key = content(merged_child)
            sub = expand(merged_child, level + 1, child_key)
            # each accepting guard is satisfiable, hence so is their disjunction
            if acc_guards:
                g_acc = disj(*acc_guards)
                nid = node(merged_child, child_key, level + 1, True, sub)
                result.append((action, g_acc, nid))
            # so is each non-accepting one; beside accepting guards, the edge
            # stays iff their zones leave some point of the others uncovered
            if nacc_guards and (not acc_guards or _reaches_outside(nacc_guards, acc_guards, zones)):
                g_nacc = disj(*nacc_guards)
                if acc_guards:
                    g_nacc = conj(g_nacc, solver.complement_guard(g_acc))
                nid = node(merged_child, child_key, level + 1, False, sub)
                result.append((action, g_nacc, nid))
        edge_memo[memo_key] = (result, n0, len(out.nodes), e0, len(out.transitions))
        return result

    node(*pending(tree.root), 0, tree.nodes[tree.root].accepting)
    # the nested functions reach each other through their closures; drop
    # them so that the memos are freed on return, not at the next collection
    signature = node = expand = None
    return out


def determinize_guard_oriented(tree: Tree) -> Tree:
    """The guard-oriented merge; the output is a DAG over fresh location ids.

    A location whose (level, pending content) was merged before gets a copy
    of the locations and transitions built then, under fresh ids and with
    the same guard objects, so the output is what merging it again would
    give."""
    return _merge(tree, share=False)


def _regions(
    guards: list[Guard], comps: list[Guard], zone: solver.DifferenceSystem
) -> list[tuple[int, solver.DifferenceSystem]]:
    """The non-zero masks, ascending, whose region meets ``zone``, each
    with ``zone`` met with the region's atoms, its disjunctions dropped.
    The region is the conjunction of ``guards[i]`` for each set bit i and
    ``comps[i]``, the complement, for each clear one.

    ``zone`` is a closed satisfiable system over (at least) the guards'
    clocks.  A depth-first walk from it fixes bit m-1 first and bit 0 last,
    the complement before the guard, so the leaves come in ascending order.
    A prefix carries the closed zone of its literals' atoms, their pending
    disjunctions and the branch, one zone, that its last search found.  A
    child searches its literal from the parent's branch first; only if that
    fails, and the prefix has disjunctions that another branch could meet,
    is the whole prefix searched again from the child's zone.  When the
    complement misses the branch, the branch lies inside the guard, which
    then needs no search.  An empty prefix cuts off every mask below it,
    and the all-zero path is never searched.
    """
    leaves: list[tuple[int, solver.DifferenceSystem]] = []
    # (bit to fix next, bits fixed so far, zone, pending disjunctions, branch)
    stack = [(len(guards) - 1, 0, zone, [], zone)]
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
            child = found  # without disjunctions the branch is the zone
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
                leaves.append((mask | bit, child))
        stack.extend(reversed(children))  # the complement's subtree first
    return leaves


def _clocks_below(
    tree: Tree, children: dict[int, list[Transition]]
) -> dict[int, frozenset[Clock]]:
    """For each node of ``tree``, the clocks that the guards of its
    out-edges and of every edge below them read, from one bottom-up pass."""
    below: dict[int, frozenset[Clock]] = {}
    stack = [(tree.root, False)]
    while stack:
        nid, done = stack.pop()
        if done:
            # a set that holds every clock so far is kept, not copied
            out: frozenset[Clock] = frozenset()
            for c in children[nid]:
                for clocks in (guard_clocks(c.guard), below[c.target]):
                    if not clocks <= out:
                        out = clocks if out <= clocks else out | clocks
            below[nid] = out
        elif nid not in below:
            stack.append((nid, True))
            stack.extend((c.target, False) for c in children[nid])
    return below


def determinize_standard(tree: Tree) -> Tree:
    """Subset construction over guard regions, pruned by reachable zones.

    For each location and action with edges guarded g_1..g_m, every
    non-empty subset S yields one outgoing edge guarded by the g_i of S
    conjoined with the complements of the rest, if that region meets the
    location's zone (:func:`_regions` finds them, fixing one g_i or its
    complement per step); its target merges the member targets.

    Each location carries one closed zone that holds every clock valuation
    at which a run enters it (Bengtsson & Yi 2004): x0 = 0 at the root;
    then time elapse, the edge's region with its disjunctions dropped, the
    reset of the target's level clock, and the projection onto the clocks
    that some guard below the target members reads.  An edge whose region
    misses the zone is never taken, so it is left out with its subtree;
    the language stays the same.

    A location's subtree depends only on its level, its member input nodes
    and that zone, which, closed and satisfiable, is canonical.  So each
    (level, members, zone) is built once, and an edge that reaches it again
    points to it, as the zone passed list of a reachability search would
    (Bengtsson & Yi 2004).  A location whose members have no out-edges has
    an empty subtree and is keyed on its level and acceptance alone.  The
    output is a DAG, numbered in depth-first order of first visit; it
    unfolds to the tree that the construction without sharing builds.
    """
    if not tree.renamed:
        raise StructuralError("determinization requires a renamed tree")
    children = tree.build_children_index()
    below = _clocks_below(tree, children)
    out = Tree(root=0, renamed=True)
    start = solver.DifferenceSystem(())
    start.close()
    # the locations built so far, by what their subtrees depend on
    built: dict = {}
    # edges still to build, the next one last: source location, action,
    # guard, the target's level and member input nodes, and the zone in
    # which the edge fires
    stack = [(None, None, None, 0, frozenset((tree.root,)), start)]
    while stack:
        source, action, guard, level, members, zone = stack.pop()
        accepting = any(tree.nodes[t].accepting for t in members)
        reset = level_clock(level)
        edges: list[_Edge] = []
        for t in sorted(members):
            edges.extend((c.action, c.guard, c.target) for c in children[t])
        if edges:
            # the entry zone: the level clock reset, only the clocks read below kept
            needed = frozenset().union(*(below[t] for t in members))
            zone = zone.project_out(*(v for v in zone.vars[1:] if v == reset or v not in needed))
            if reset in needed:
                zone = zone.extend_reset(reset)
            zone.up()
            # a clock that no reset on the way set is only known to be >= 0
            zone = zone.over(frozenset().union(*(guard_clocks(g) for _, g, _ in edges)))
            key = (level, members, tuple(zone.vars), tuple(map(tuple, zone.m)))
        else:
            key = (level, accepting)
        nid = built.get(key)
        fresh = nid is None
        if fresh:
            nid = built[key] = len(out.nodes)
            out.nodes[nid] = TreeNode(None, level, accepting=accepting)
        if source is not None:
            out.transitions.append(Transition(source, nid, action, guard, frozenset((reset,))))
        if not (fresh and edges):
            continue
        out_edges = []
        for action, group in _group_by_action(edges):
            m = len(group)
            guards = [g for _, g, _ in group]
            comps = [solver.complement_guard(g) for g in guards]
            for mask, leaf in _regions(guards, comps, zone):
                guard = conj(
                    *(guards[i] for i in range(m) if mask >> i & 1),
                    *(comps[i] for i in range(m) if not mask >> i & 1),
                )
                targets = frozenset(group[i][2] for i in range(m) if mask >> i & 1)
                out_edges.append((nid, action, guard, level + 1, targets, leaf))
        stack.extend(reversed(out_edges))
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
