"""Determinization of silent-free tree automata.

Two constructions are provided.  The guard-oriented one merges all
same-action edges of a location into at most two target locations (one
accepting, one not), pushing each edge's guard onto the subtree below it
as a diagonal constraint relative to the merge reset; the accepting and
non-accepting targets share their subtrees, so the result is a DAG.  It
merges each (level, pending content) once per call and copies the block
that it built where the content repeats.  Its on-the-fly variant shares
those locations instead of copying them.  Both read a DAG input as the
tree that it unfolds to: :func:`pipeline_on_the_fly` and the CLI merge
the stripped unfolding built as a DAG, so no stage before the merge
pays for the full tree.
The standard one is a subset construction over guard regions; it walks
each action's guard regions depth first on a carried zone, so an empty
prefix prunes every region below it.  The walk starts from the zone that
the location carries, which holds every clock valuation at which a run
enters it, so a region that no run reaches yields no edge.  A location is
built once per level, member set and zone, so its output is a DAG too.
"""

from __future__ import annotations

from collections.abc import ItemsView
from functools import cache
from typing import Optional

from .core import (
    Atom,
    Clock,
    Guard,
    StructuralError,
    Transition,
    conj,
    conjunction_atoms,
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


# a guard's bare zones: closed, over its atoms without x >= 0, each admitting
# x >= 0; met with x >= 0, their union lies within the guard and holds each
# of its points that a run can reach
_Zones = list[solver.DifferenceSystem]
# an edge of a pending (merged) location: action, guard, original tree node
# whose subtree hangs below it, and the guard's bare zones if the merge pushed
# it ("| None", not Optional[...]: typing caches its subscriptions, and the
# cache would keep this module alive)
_Edge = tuple[Optional[str], Guard, int, _Zones | None]


def _carry(zone: solver.DifferenceSystem, anchor: Clock, g: Guard) -> _Zones:
    """The bare zones of ``g`` met with the bare ``zone`` rebased on
    ``anchor``, those that some point with every clock >= 0 meets.

    The rebased zone stays closed, so each atom of a conjunction folds in
    by an O(n^2) tightening and no closure is searched afresh; only a
    guard with a disjunction is searched, from the rebased zone."""
    out = zone.rebased(anchor, guard_clocks(g))
    atoms = conjunction_atoms(g)
    if atoms is None:
        return [z for z in solver.feasible_systems(g, out) if z.admits_nonneg()]
    for a in atoms:
        out.add_atom(a)
    return [out] if out.admits_nonneg() else []


def _group_by_action(edges: list[_Edge]) -> ItemsView[str, list[_Edge]]:
    """The ``edges`` grouped by action, in order of first appearance."""
    groups: dict[str, list[_Edge]] = {}
    for e in edges:
        if e[0] is None:
            raise StructuralError("determinization requires a silent-free tree")
        groups.setdefault(e[0], []).append(e)
    return groups.items()


def _reaches_outside(nacc: list[tuple[Guard, _Zones]], acc: list[tuple[Guard, _Zones]]) -> bool:
    """Whether some non-negative point over the joint clocks of the members,
    each a guard with its bare zones, meets a zone of ``nacc`` and none of
    ``acc``'s.

    Each zone, closed under ``x >= 0`` by tightenings, is put over the joint
    variables (a clock that a zone does not bound is only >= 0).  Against a
    single zone of ``acc`` a zone of ``nacc`` reaches outside iff it does not
    lie within it, entrywise, since both are closed and satisfiable.
    Otherwise the union of ``acc``'s is subtracted from each of ``nacc``'s
    (:func:`tadet.solver.uncovered_piece`), so the complement of ``acc`` is
    never searched as a formula.
    """
    nfed, afed = ([z.copy() for _, zones in members for z in zones] for members in (nacc, acc))
    for z in nfed + afed:
        z.add_nonneg(z.vars)
    clocks = frozenset().union(*(z.vars[1:] for z in nfed + afed))
    nfed, afed = [z.over(clocks) for z in nfed], [z.over(clocks) for z in afed]
    if len(afed) == 1:
        return not all(z.within(afed[0]) for z in nfed)
    return solver.uncovered_piece(nfed, afed) is not None


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

    Each member of a group is its guard with the guard's bare zones; an
    empty list drops it, and an input edge's are searched once per call.
    A child's pushed guard ``conj(c.guard, rebase_guard(g, anchor))`` gets
    the union, over the member's zones, of :func:`_carry`: a few O(n^2)
    tightenings for a conjunction, no closure searched afresh.  A mixed
    group subtracts its members' zones (:func:`_reaches_outside`).
    """
    if not tree.renamed:
        raise StructuralError("determinization requires a renamed tree")
    children = tree.build_children_index()
    out = Tree(root=0, renamed=True)
    node_memo: dict = {}
    # (level, content) -> its out-edges and the ranges of locations and
    # transitions that its first expansion appended
    edge_memo: dict = {}
    # the same guards are tested many times over; the memos live for this
    # call.  A lone input edge keeps is_satisfiable: the silent-deep rows make
    # no other such call, and the traced layerbench run divides by their count
    sat = cache(solver.is_satisfiable)
    # equal atoms complement to one shared object, which the writer writes once
    complements: dict[Atom, Guard] = {}

    @cache
    def bare(g: Guard) -> _Zones:
        zones = solver.feasible_systems(g, solver.DifferenceSystem(guard_clocks(g)))
        return [z for z in zones if z.admits_nonneg()]

    # structural signature of each input subtree, interned to small ints:
    # its acceptance and its ordered out-edges, each with its target's
    # signature, from one bottom-up pass
    sig_ids: dict = {}
    sig: dict[int, int] = {}
    for nid in tree.post_order(children):
        entry = (
            tree.nodes[nid].accepting,
            tuple((t.action, t.guard, t.resets, sig[t.target]) for t in children[nid]),
        )
        sig[nid] = sig_ids.setdefault(entry, len(sig_ids))

    def content(edges: list[_Edge]):
        """Memo key of the pending ``edges``."""
        return tuple((a, g, sig[t]) for a, g, t, _ in edges)

    def pending(t: int) -> tuple[list[_Edge], object]:
        """The out-edges of input node ``t`` and their content."""
        edges = [(c.action, c.guard, c.target, None) for c in children[t]]
        return edges, content(edges)

    # node and expand are steps: generators that yield each step they call
    # and get back its result, so that run drives the merge from an explicit
    # stack, however deep the input
    def run(step):
        """The result of ``step``, each step that it calls run in turn."""
        stack, value = [step], None
        while True:
            try:
                call = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                value = done.value
            else:
                stack.append(call)
                value = None

    def node(edges: list[_Edge], key, level: int, accepting: bool, sub=None):
        """Step: a location at ``level`` with ``edges`` (content ``key``)
        pending, its id; ``sub``: its out-edges."""
        if share:
            memo_key = (level, accepting, key)
            if memo_key in node_memo:
                return node_memo[memo_key]
        nid = len(out.nodes)
        out.nodes[nid] = TreeNode(None, level, accepting=accepting)
        if share:
            node_memo[memo_key] = nid
        if sub is None:
            sub = yield expand(edges, level, key)
        resets = frozenset((level_clock(level + 1),))
        for (a, g, t) in sub:
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

    def expand(edges: list[_Edge], level: int, key):
        """Step: the out-edges of the (merged) location at ``level`` with
        ``edges`` pending, whose content is ``key``."""
        memo_key = (level, key)
        hit = edge_memo.get(memo_key)
        if hit is not None:
            return hit[0] if share else copy(*hit)
        n0, e0 = len(out.nodes), len(out.transitions)
        result: list[tuple[str, Guard, int]] = []
        for action, group in _group_by_action(edges):
            # a pushed edge's zones were found feasible when it was pushed
            if len(group) == 1:
                _, g, t, zones = group[0]
                if zones is not None or sat(g):
                    nid = yield node(*pending(t), level + 1, tree.nodes[t].accepting)
                    result.append((action, g, nid))
                continue

            anchor = level_clock(level + 1)
            acc: list[tuple[Guard, _Zones]] = []
            nacc: list[tuple[Guard, _Zones]] = []
            merged_child: list[_Edge] = []
            for _, g, t, zones in group:
                if zones is None:
                    zones = bare(g)
                if not zones:
                    continue
                (acc if tree.nodes[t].accepting else nacc).append((g, zones))
                push = rebase_guard(g, anchor)
                for c in children[t]:
                    carried = [cz for z in zones for cz in _carry(z, anchor, c.guard)]
                    if carried:
                        merged_child.append((c.action, conj(c.guard, push), c.target, carried))

            child_key = content(merged_child)
            sub = yield expand(merged_child, level + 1, child_key)
            # each accepting guard is satisfiable, hence so is their disjunction
            if acc:
                g_acc = disj(*(g for g, _ in acc))
                nid = yield node(merged_child, child_key, level + 1, True, sub)
                result.append((action, g_acc, nid))
            # so is each non-accepting one; beside accepting guards, the edge
            # stays iff their zones leave some point of the others uncovered
            if nacc and (not acc or _reaches_outside(nacc, acc)):
                g_nacc = disj(*(g for g, _ in nacc))
                if acc:
                    g_nacc = conj(g_nacc, solver.complement_guard(g_acc, complements))
                nid = yield node(merged_child, child_key, level + 1, False, sub)
                result.append((action, g_nacc, nid))
        edge_memo[memo_key] = (result, n0, len(out.nodes), e0, len(out.transitions))
        return result

    run(node(*pending(tree.root), 0, tree.nodes[tree.root].accepting))
    # the nested functions reach each other through their closures; drop
    # them so that the memos are freed on return, not at the next collection
    node = expand = None
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
    for nid in tree.post_order(children):
        # a set that holds every clock so far is kept, not copied
        out: frozenset[Clock] = frozenset()
        for c in children[nid]:
            for clocks in (guard_clocks(c.guard), below[c.target]):
                if not clocks <= out:
                    out = clocks if out <= clocks else out | clocks
        below[nid] = out
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
    complements: dict[Atom, Guard] = {}  # equal atoms complement to one object
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
            comps = [solver.complement_guard(g, complements) for g in guards]
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
    (:func:`tadet.silent.stripped_unfolding`), as ``tadet --variant otf``
    runs it: a location reached along different runs with the same clock
    resets is unfolded, renamed and stripped once.  The sharing merge reads
    the DAG as it would the tree, so the output is that of
    :func:`determinize_on_the_fly` on the staged tree."""
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
