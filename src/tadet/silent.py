"""Removal of silent transitions from a renamed unfolded tree.

Each round removes the first-from-root silent transition by building a
bypass transition guarded with the enabling guard, conjoining the taken
guard onto the silent target's successors, rewriting every future guard
that refers to the silent transition's reset clock, and adding
synchronization constraints between such future guards on the same path.
The output accepts exactly the same observable timed traces.

Guards are read as bound tables (:func:`tadet.core.add_bounds`), the same
table behind :func:`tadet.core.simplify_conjunction`, whose rows are raw
difference bounds.  The enabling guard and Tables 2/3 tighten a table by
sums of such bounds (:func:`tadet.core.raw_add`), and every rewritten
guard is written back from one.

The rounds share one index of the tree's edges (each node's out-edges and
incoming edge, and the list order as a linked list) that is updated in
place as edges move, so a round costs the size of the silent target's
subtree, not of the whole tree.

Tree copies of a silent step share its guards.  Each silent clock has a
table (``_Shared``) that lives while a silent edge resetting that clock is
left; it maps the values that each step reads (the silent guard's bounds,
the bypass guard, the taken-guard conjunction, the Table 2/3 rewrite of a
future guard) to the step's result.  So each distinct guard is built once
per call, every copy holds the same object, and the caches that later
stages keep per guard object (``guard_clocks``' set, the merge's search
memo, ``serialize_model``'s text) hit across copies.  A guard that does not
read the silent clock is passed without a lookup.

:func:`stripped_unfolding` gives the same result straight from the model,
as a DAG: it unfolds, renames and strips each node once, with the same
per-edge steps (:func:`_context`, :func:`enabling_guard`, the Table 2/3
rewrite of one guard), and carries each removal down as a rewrite that the
guards below still owe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import (
    FALSE,
    And,
    Atom,
    BoundTable,
    Clock,
    FalseGuard,
    Guard,
    StructuralError,
    TimedAutomaton,
    Transition,
    UnsupportedInputError,
    X0,
    add_bounds,
    conj,
    conjunction_atoms,
    empty_interval,
    guard_clocks,
    level_clock,
    raw_add,
    rename_guard,
    silent_clock,
    simplify_conjunction,
    table_guard,
    tighten,
)
from .unfold import Tree, TreeNode, _out_edges


@dataclass
class SilentContext:
    """Everything Algorithm 1 needs about one first-from-root silent transition."""

    silent_clock: Clock         # x_{s,0}, the clock reset on tau_{s,0}
    target: int                 # q_{s,0}
    predecessor: Optional[Transition]  # tau_s, observable edge into q_s (None at root)
    reset_clock: Clock          # x_s: reset of tau_s, or x_0 at the root
    # bound table (core.add_bounds) of g'_{s,0} = g_{s,0} & (0 <= x_s), one
    # row per clock; None when the silent transition can never fire
    bounds: Optional[BoundTable]
    exact: Optional[Clock]  # the clock of the first '=' atom of g_{s,0}, if any


def _silent_bounds(guard: Guard, x_s: Clock) -> tuple[Optional[BoundTable], Optional[Clock]]:
    """``SilentContext.bounds`` and ``.exact`` of a silent guard ``guard``
    whose predecessor resets ``x_s``."""
    g_aug = conj(guard, Atom(x_s, ">=", 0))
    atoms = conjunction_atoms(g_aug)
    if atoms is None:
        if not isinstance(g_aug, FalseGuard):
            raise UnsupportedInputError(f"silent guard must be a conjunction of atoms: {g_aug}")
        return None, None
    bounds = add_bounds({}, atoms)
    if any(empty_interval(lo, up) for lo, up in bounds.values()):
        return None, None
    for a in atoms:
        if a.right is not None:
            raise UnsupportedInputError(f"silent guard must be unary, got {a}")
    return bounds, next((a.left for a in atoms if a.rel == "="), None)


def _context(silent: Transition, pred: Optional[Transition], memo: dict) -> SilentContext:
    """The context of removing ``silent``, ``pred`` the edge into its
    source; ``memo`` keeps :func:`_silent_bounds` by its arguments."""
    if pred is not None and pred.is_silent:
        raise StructuralError("not a first-from-root silent transition")
    x_s = next(iter(pred.resets)) if pred is not None else X0
    (x_s0,) = silent.resets
    found = memo.get((silent.guard, x_s))
    if found is None:
        found = memo[silent.guard, x_s] = _silent_bounds(silent.guard, x_s)
    bounds, exact = found
    return SilentContext(
        silent_clock=x_s0,
        target=silent.target,
        predecessor=pred,
        reset_clock=x_s,
        bounds=bounds,
        exact=exact,
    )


# -- bounds bookkeeping ------------------------------------------------------
# the enabling guard and Tables 2/3 add pairs of raw bounds, one from each
# side.  Min distributes over sums and a tie keeps the strict bound, so
# pairing each clock's tightest bounds (its bound table row) gives the
# tightest result, which is all the table keeps.


def enabling_guard(ctx: SilentContext) -> Guard:
    """Constraints under which the silent transition would still have been
    satisfiable at some non-negative delay after the bypass.

    The lower bound m on x_i and the upper bound n on x_j with i != j
    yield x_j - x_i < n - m (weak only when both bounds are weak); pairs
    involving x_s lose the x_s term since x_s is reset on the bypass.
    """
    if ctx.bounds is None:
        return FALSE
    x_s = ctx.reset_clock
    out: BoundTable = {}
    for (xi, _), (lo, _) in ctx.bounds.items():
        if lo is None:
            continue
        for (xj, _), (_, up) in ctx.bounds.items():
            if up is None or xj == xi:
                continue
            diff = raw_add(up, lo)  # on x_j - x_i
            if xi == x_s:
                tighten(out, (xj, None), 1, diff)
            elif xj == x_s:
                tighten(out, (xi, None), 0, diff)  # on 0 - x_i
            else:
                tighten(out, (xj, xi), 1, diff)
    return table_guard(out)


def taken_guard(ctx: SilentContext) -> Guard:
    """0 <= x_{s,0}: placed on every transition leaving the silent target."""
    return Atom(ctx.silent_clock, ">=", 0)


def _add_sums(bounds: BoundTable, key: tuple[Clock, None], row: list, on: list) -> None:
    """Tighten the row ``key`` of ``bounds``, side by side, by the sums of
    the raw pairs ``row`` and ``on`` where both are bounded."""
    for side in (0, 1):
        if row[side] is not None and on[side] is not None:
            tighten(bounds, key, side, raw_add(row[side], on[side]))


class _Edges:
    """The edges of a tree under removal, by slot, with the structural
    indexes kept up to date as edges move.

    The input edges take slots 0..m-1 in list order; a bypass takes the
    next free slot and is linked into the list order right after its
    predecessor.
    """

    def __init__(self, tree: Tree) -> None:
        self.edge: list[Optional[Transition]] = list(tree.transitions)  # None once removed
        self.after: list[int] = [*range(1, len(self.edge)), -1]  # next slot in list order
        self.out: dict[int, list[int]] = {n: [] for n in tree.nodes}  # in list order
        self.into: dict[int, int] = {}
        for s, t in enumerate(self.edge):
            self.out[t.source].append(s)
            self.into[t.target] = s

    def replace(self, s: int, source: int, guard: Guard) -> None:
        t = self.edge[s]
        self.edge[s] = Transition(source, t.target, t.action, guard, t.resets)

    def insert_after(self, pred: int, t: Transition) -> None:
        s = len(self.edge)
        self.edge.append(t)
        self.after.append(self.after[pred])
        self.after[pred] = s
        siblings = self.out[t.source]
        siblings.insert(siblings.index(pred) + 1, s)
        self.into[t.target] = s

    def remove(self, s: int) -> None:
        self.out[self.edge[s].source].remove(s)
        self.edge[s] = None

    def prune(self, s: int, nodes: dict[int, TreeNode]) -> list[Transition]:
        """Drop an edge that can never fire, together with everything below
        it; returns the dropped edges."""
        dropped = [self.edge[s]]
        stack = [dropped[0].target]
        self.remove(s)
        while stack:
            n = stack.pop()
            del nodes[n], self.into[n]
            for c in self.out.pop(n):
                dropped.append(self.edge[c])
                stack.append(self.edge[c].target)
                self.edge[c] = None
        return dropped

    def transitions(self) -> list[Transition]:
        out: list[Transition] = []
        s = 0 if self.edge else -1
        while s != -1:
            if self.edge[s] is not None:
                out.append(self.edge[s])
            s = self.after[s]
        return out


# a row of a bound table, keyed as in core.add_bounds, its raw bounds
# frozen so that rows can be part of a key.  Module-level aliases say
# "X | None", not Optional[X]: typing caches its subscriptions, and the
# cache would keep every imported copy of this module alive
_Row = tuple[tuple[Clock, None], tuple[int | None, int | None]]


def _moved(ctx: SilentContext) -> tuple[_Row, ...]:
    """The rows of the silent guard onto which Table 2 moves a future
    guard's bounds on the silent clock.  With an exact silent guard
    x_i = n_i the step fired at x_i = n_i, so x_i = x_{s,0} + n_i: only
    x_i's row is used."""
    if ctx.exact is not None:
        return (((ctx.exact, None), tuple(ctx.bounds[(ctx.exact, None)])),)
    return tuple((key, tuple(row)) for key, row in ctx.bounds.items())


def _rewrite(g: Guard, x_s0: Clock, moved: tuple[_Row, ...], placed: tuple[_Row, ...],
             resets: frozenset[Clock]) -> Optional[tuple[Guard, tuple[_Row, ...]]]:
    """Tables 2 and 3 on one future guard ``g``, below a removed silent step
    whose clock is ``x_s0``.

    ``moved`` are the silent guard's rows (:func:`_moved`); ``placed``
    holds, for each rewritten edge above on the path from the silent
    target, its reset's row key and its bounds on the silent clock, sides
    swapped.  Returns None when ``g`` does not read ``x_s0``; else the
    rewritten guard and ``placed`` for the edges below, which gains the row
    of the edge's own reset (``resets``).

    Only the top-level atoms of ``g`` are rewritten: any other part, a
    top-level disjunction included, must not read ``x_s0``.
    """
    parts = g.parts if isinstance(g, And) else (g,)
    reads = False
    for p in parts:
        if not isinstance(p, Atom):
            if x_s0 in guard_clocks(p):
                raise UnsupportedInputError(
                    f"future guard refers to {x_s0} inside a disjunction: {p}"
                )
        elif p.left == x_s0 or p.right == x_s0:
            if p.right is not None:
                raise UnsupportedInputError(
                    f"future guard refers to {x_s0} diagonally: {p}"
                )
            reads = True
    if not reads:
        return None
    bounds = add_bounds({}, (p for p in parts if isinstance(p, Atom)))
    on = bounds.pop((x_s0, None))
    if empty_interval(*on):
        # contradictory constraints on the silent clock
        new_guard: Guard = FALSE
    else:
        # Table 2, then Table 3: an ancestor's reset clock r is bounded
        # here by the differences of the two guards' bounds on the silent
        # clock
        for key, row in (*moved, *placed):
            _add_sums(bounds, key, row, on)
        new_guard = conj(*(p for p in parts if not isinstance(p, Atom)),
                         table_guard(bounds))
    (own_reset,) = resets
    return new_guard, (*placed, ((own_reset, None), (on[1], on[0])))


def _bypass_guard(ctx: SilentContext) -> Guard:
    """The guard of a removed silent step's bypass: the predecessor's guard
    with the enabling guard."""
    return simplify_conjunction(conj(ctx.predecessor.guard, enabling_guard(ctx)))


def _bypass(ctx: SilentContext, target, guard: Guard) -> Transition:
    """The bypass of a removed silent step, guarded by ``guard``
    (:func:`_bypass_guard`): its predecessor's source, action and reset,
    into ``target``."""
    pred = ctx.predecessor
    return Transition(pred.source, target, pred.action, guard, frozenset((ctx.reset_clock,)))


def _reads(g: Guard, clock: Clock) -> bool:
    """Whether ``g`` reads ``clock``; an atom is tested without a set."""
    if isinstance(g, Atom):
        return g.left is clock or g.right is clock
    return clock in guard_clocks(g)


class _Shared:
    """The results of the staged removal's steps for one silent clock, each
    by the values that the step reads, compared by value, so that every
    tree copy of an edge gets the same guard object.  Only results are
    kept: a step that raises raises again on its next call."""

    __slots__ = ("bounds", "bypass", "taken", "rewrite")

    def __init__(self) -> None:
        self.bounds: dict = {}   # (silent guard, x_s) -> _silent_bounds
        self.bypass: dict = {}   # (predecessor guard, silent guard, x_s) -> _bypass_guard
        self.taken: dict = {}    # guard -> guard & the taken guard
        self.rewrite: dict = {}  # (guard, moved, placed, resets) -> _rewrite


def _update_future_guards(ctx: SilentContext, edges: _Edges, shared: _Shared) -> None:
    """Conjoin the taken guard onto the silent target's out-edges, rewrite
    every guard below the target that reads the silent clock, and
    synchronize pairs of such guards on a common path.
    """
    x_s0 = ctx.silent_clock
    tg = taken_guard(ctx)
    for s in edges.out[ctx.target]:
        g = edges.edge[s].guard
        taken = shared.taken.get(g)
        if taken is None:
            taken = shared.taken[g] = conj(g, tg)
        edges.replace(s, ctx.target, taken)
    moved = _moved(ctx)
    rewrites = shared.rewrite
    # depth-first over edges, each with the ``placed`` rows of its path
    stack: list[tuple[int, tuple[_Row, ...]]] = [(s, ()) for s in reversed(edges.out[ctx.target])]
    while stack:
        s, placed = stack.pop()
        t = edges.edge[s]
        if _reads(t.guard, x_s0):
            # a guard that reads x_s0 is rewritten or raises
            key = (t.guard, moved, placed, t.resets)
            step = rewrites.get(key)
            if step is None:
                step = rewrites[key] = _rewrite(t.guard, x_s0, moved, placed, t.resets)
            new_guard, placed = step
            edges.replace(s, t.source, new_guard)
        stack.extend((c, placed) for c in reversed(edges.out[t.target]))


def remove_all_silent(t: Tree) -> Tree:
    """Iterate Algorithm 1 until no silent transitions remain.

    Each round removes the first silent transition in depth-first
    (transition-list) order.  The search resumes after each round instead
    of restarting from the root: a round leaves everything before the
    popped node unchanged, so the search goes on at that node, and after a
    bypass at the silent target, now the node's next sibling.

    Tree copies of a silent step share its work: each silent clock has a
    table (``_Shared``) of the guards that removing its steps builds, keyed
    on the values each step reads, so each distinct guard is built once.
    A clock's table lives from its first silent step to the removal or
    pruning of the last silent edge that resets it, since every key reads
    that clock; no table outlives the call.
    """
    if not t.renamed:
        raise StructuralError("silent removal requires a renamed tree")
    out = t.copy()
    edges = _Edges(out)
    left = Counter(r for e in out.transitions if e.is_silent for r in e.resets)
    tables: dict[Clock, _Shared] = {}

    def spent(dropped: list[Transition]) -> None:
        """Drop the table of each silent clock that no edge left resets."""
        for e in dropped:
            if e.is_silent:
                (r,) = e.resets
                left[r] -= 1
                if not left[r]:
                    tables.pop(r, None)

    stack = [out.root]
    while stack:
        n = stack.pop()
        if n not in out.nodes:
            continue  # pruned
        s = next((s for s in edges.out[n] if edges.edge[s].is_silent), None)
        if s is None:
            stack.extend(edges.edge[c].target for c in reversed(edges.out[n]))
            continue
        silent = edges.edge[s]
        (x_s0,) = silent.resets
        shared = tables.get(x_s0)
        if shared is None:
            shared = tables[x_s0] = _Shared()
        p = edges.into.get(n)
        ctx = _context(silent, None if p is None else edges.edge[p], shared.bounds)
        if ctx.bounds is None:
            spent(edges.prune(s, out.nodes))
            stack.append(n)
            continue
        edges.remove(s)
        if p is not None:
            key = (ctx.predecessor.guard, silent.guard, ctx.reset_clock)
            g = shared.bypass.get(key)
            if g is None:
                g = shared.bypass[key] = _bypass_guard(ctx)
            edges.insert_after(p, _bypass(ctx, ctx.target, g))
        _update_future_guards(ctx, edges, shared)
        spent([silent])
        if p is None:
            # silent from the root: attach the target's subtree to the root.
            # Root rounds all come before the first bypass (the root is
            # searched first and never gets a silent edge back), so slot
            # numbers are still list positions here.
            moved = edges.out.pop(ctx.target)
            for c in moved:
                edges.replace(c, n, edges.edge[c].guard)
            edges.out[n] = sorted(edges.out[n] + moved)
            del out.nodes[ctx.target], edges.into[ctx.target]
            stack.append(n)
        else:
            stack += [ctx.target, n]
    out.transitions = edges.transitions()
    return out


# ---------------------------------------------------------------------------
# the stripped unfolding as a DAG

# A node of the renamed unfolding under removal: model location, observable
# level, silent index, the renamed clock that holds each model clock (in
# sorted model-clock order), and the rewrites that removed silent steps
# above still owe the guards below (``_live``).  Equal nodes root equal
# subtrees.
_Node = tuple
# A rewrite owed by one removed silent step: its silent clock, its Table 2
# rows (``_moved``), the Table 3 rows of its path so far (``_rewrite``'s
# ``placed``), and its taken guard while at its target, else None.
_Owed = tuple[Clock, tuple[_Row, ...], tuple[_Row, ...], Atom | None]


def _live(owed: list[_Owed], held: tuple[Clock, ...]) -> tuple[_Owed, ...]:
    """The rewrites in ``owed`` that can still change a guard below a node
    whose model clocks are held by ``held``.

    A rewrite acts only on guards that read its silent clock.  Below the
    silent target only a model clock that the clock still holds brings it
    into a guard, or Table 3 of an earlier live rewrite, whose rows name
    the resets of the edges it rewrote; the other rewrites are dropped, so
    that nodes that differ only in spent history are equal.
    """
    reads = set(held)
    out = []
    for w in owed:
        if w[3] is not None or w[0] in reads:
            out.append(w)
            reads.update(key[0] for key, _ in w[2])
    return tuple(out)


def stripped_unfolding(a: TimedAutomaton, k: int) -> Tree:
    """``remove_all_silent(rename_clocks(unfold(a, k)))`` built directly as
    a DAG: each node of the unfolding is unfolded, renamed and stripped
    once, however many runs reach it.

    A node is keyed by what its stripped subtree depends on (``_Node``).
    Its out-edges are the ones that :func:`remove_all_silent` gives every
    tree copy of it, in the same order: each observable out-edge, followed
    by the bypasses that removing the silent steps below it puts after it,
    the bypasses of a later silent step first.  A node's silent steps are
    rewritten like any edge, and their removal is carried down as an owed
    rewrite (``_Owed``), applied edge by edge as the unfolding grows.  At
    the root, the silent targets' out-edges join the root's own, in the
    unfolding's depth-first order.  Every walk is iterative.
    """
    out_edges = _out_edges(a, k)
    clocks = sorted(a.clocks)
    expanded: dict[_Node, list[Transition]] = {}

    def expand(node: _Node) -> list[Transition]:
        """The node's out-edges in the renamed unfolding, each guard
        rewritten by the owed rewrites, into the child nodes."""
        if node in expanded:
            return expanded[node]
        loc, level, index, held, owed = node
        subst = dict(zip(clocks, held))
        edges = []
        for t in out_edges.get(loc, ()) if level < k else ():
            g = rename_guard(t.guard, subst)
            if t.is_silent:
                child = (t.target, level, 0 if index is None else index + 1)
                fresh = silent_clock(level, child[2])
            else:
                child = (t.target, level + 1, None)
                fresh = level_clock(level + 1)
            resets = frozenset((fresh,))
            owed_below = []
            for x_s0, moved, placed, taken in owed:
                if taken is not None:
                    g = conj(g, taken)
                step = _rewrite(g, x_s0, moved, placed, resets)
                if step is not None:
                    g, placed = step
                owed_below.append((x_s0, moved, placed, None))
            child_held = tuple(fresh if c in t.resets else h for c, h in zip(clocks, held))
            target = (*child, child_held, _live(owed_below, child_held))
            edges.append(Transition(node, target, t.action, g, resets))
        expanded[node] = edges
        return edges

    def owing(ctx: SilentContext) -> _Node:
        """The silent target of ``ctx``, owing the rewrite of its removal."""
        loc, level, index, held, owed = ctx.target
        own = (ctx.silent_clock, _moved(ctx), (), taken_guard(ctx))
        return (loc, level, index, held, (*owed, own))

    checked: set[_Node] = set()
    silent_bounds: dict = {}  # for _context

    def pruned(node: _Node) -> None:
        """Rewrite every guard below a silent step that can never fire, as
        the staged removal does before it prunes them, so that both reject
        the same inputs."""
        stack = [node]
        while stack:
            n = stack.pop()
            if n not in checked:
                checked.add(n)
                stack.extend(e.target for e in expand(n))

    def removals(node: _Node, pred: Optional[Transition]) -> list[SilentContext]:
        """The removal contexts of the node's silent steps that can fire, in
        order, ``pred`` the edge into the node; the others are pruned."""
        out = []
        for s in expand(node):
            if s.is_silent:
                ctx = _context(s, pred, silent_bounds)
                if ctx.bounds is None:
                    pruned(s.target)
                else:
                    out.append(ctx)
        return out

    def bypassed(obs: list[Transition]) -> list[Transition]:
        """``obs``, each followed by the bypasses that removal puts after it."""
        out = []
        stack = obs[::-1]
        while stack:
            e = stack.pop()
            out.append(e)
            stack += [_bypass(ctx, owing(ctx), _bypass_guard(ctx))
                      for ctx in removals(e.target, e)]
        return out

    root: _Node = (a.initial, 0, None, (X0,) * len(clocks), ())
    # silent steps from the root have no bypass: their targets' out-edges
    # join the root's, in depth-first order of the targets
    obs: list[Transition] = []
    stack = [root]
    while stack:
        node = stack.pop()
        obs += [e for e in expand(node) if not e.is_silent]
        stack += [owing(ctx) for ctx in removals(node, None)][::-1]

    tree = Tree(root=0, renamed=True)
    ids = {root: 0}
    order = [root]
    for node in order:  # grows as new nodes are reached
        nid = ids[node]
        loc, level, index = node[:3]
        tree.nodes[nid] = TreeNode(loc, level, index, index is None and loc in a.accepting)
        for e in bypassed(obs if nid == 0 else [e for e in expand(node) if not e.is_silent]):
            tid = ids.get(e.target)
            if tid is None:
                tid = ids[e.target] = len(order)
                order.append(e.target)
            tree.transitions.append(Transition(nid, tid, e.action, e.guard, e.resets))
    return tree
