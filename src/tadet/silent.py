"""Removal of silent transitions from a renamed unfolded tree.

Removing a silent transition builds a bypass transition guarded with the
enabling guard, conjoins the taken guard onto the silent target's
successors, rewrites every future guard that refers to the silent
transition's reset clock, and adds synchronization constraints between such
future guards on the same path.  The output accepts exactly the same
observable timed traces.

Guards are read as bound tables (:func:`tadet.core.add_bounds`), the same
table behind :func:`tadet.core.simplify_conjunction`, whose rows are raw
difference bounds.  The enabling guard and Tables 2/3 tighten a table by
sums of such bounds (:func:`tadet.core.raw_add`), and every rewritten
guard is written back from one.

Both routes make one walk down the tree: :func:`remove_all_silent` on a
renamed tree, and :func:`stripped_unfolding` straight from the model,
which unfolds, renames and strips each node of the unfolding once, as a
DAG.  Each removes a silent step by one call of :func:`_removal`, which
gives the step's bypass guard and the rewrite that the guards below still
owe (``_Owed``); each edge pays what it owes once (:func:`_pay`).

Tree copies of a silent step share its guards.  One memo, kept for the
call, maps the values that each step reads (the silent guard's bound
table and Table 2's rows, and with the silent clock the bypass guard, the
taken-guard conjunction and the Table 2/3 rewrite of a future guard) to
the step's result.  So each distinct guard is built once per call, every
copy holds the same object, and the caches that later stages keep per
guard object (``guard_clocks``' set, the merge's memos,
``serialize_model``'s text) hit across copies.  A guard that does not
read the silent clock is passed without a lookup.  Only results are kept:
a step that raises raises again on its next call.
"""

from __future__ import annotations

from typing import Iterable, Optional

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


# a row of a bound table, keyed as in core.add_bounds, its raw bounds
# frozen so that rows can be part of a key.  Module-level aliases say
# "X | None", not Optional[X]: typing caches its subscriptions, and the
# cache would keep every imported copy of this module alive
_Row = tuple[tuple[Clock, None], tuple[int | None, int | None]]


def _silent_bounds(guard: Guard,
                   x_s: Clock) -> tuple[Optional[BoundTable], Optional[tuple[_Row, ...]]]:
    """The bound table (:func:`tadet.core.add_bounds`) of
    g'_{s,0} = g_{s,0} & (0 <= x_s), one row per clock, for a silent guard
    ``guard`` whose predecessor resets ``x_s``, and the rows onto which
    Table 2 moves a future guard's bounds on the silent clock; both None
    when the silent step can never fire.  With an exact silent guard
    x_i = n_i the step fired at x_i = n_i, so x_i = x_{s,0} + n_i: only
    x_i's row is moved onto."""
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
    exact = next((a.left for a in atoms if a.rel == "="), None)
    rows = bounds.items() if exact is None else [((exact, None), bounds[(exact, None)])]
    return bounds, tuple((key, tuple(row)) for key, row in rows)


# -- bounds bookkeeping ------------------------------------------------------
# the enabling guard and Tables 2/3 add pairs of raw bounds, one from each
# side.  Min distributes over sums and a tie keeps the strict bound, so
# pairing each clock's tightest bounds (its bound table row) gives the
# tightest result, which is all the table keeps.


def enabling_guard(bounds: BoundTable, x_s: Clock) -> Guard:
    """Constraints under which the silent transition would still have been
    satisfiable at some non-negative delay after the bypass.

    The lower bound m on x_i and the upper bound n on x_j with i != j
    yield x_j - x_i < n - m (weak only when both bounds are weak); pairs
    involving x_s lose the x_s term since x_s is reset on the bypass.
    ``bounds`` is the silent guard's table (:func:`_silent_bounds`).
    """
    out: BoundTable = {}
    for (xi, _), (lo, _) in bounds.items():
        if lo is None:
            continue
        for (xj, _), (_, up) in bounds.items():
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


def _add_sums(bounds: BoundTable, key: tuple[Clock, None], row: list, on: list) -> None:
    """Tighten the row ``key`` of ``bounds``, side by side, by the sums of
    the raw pairs ``row`` and ``on`` where both are bounded."""
    for side in (0, 1):
        if row[side] is not None and on[side] is not None:
            tighten(bounds, key, side, raw_add(row[side], on[side]))


def _rewrite(g: Guard, x_s0: Clock, moved: tuple[_Row, ...], placed: tuple[_Row, ...],
             resets: frozenset[Clock]) -> tuple[Guard, tuple[_Row, ...]]:
    """Tables 2 and 3 on one future guard ``g`` that reads ``x_s0``, the
    clock of a removed silent step.

    ``moved`` are the silent guard's rows (:func:`_silent_bounds`); ``placed``
    holds, for each rewritten edge above on the path from the silent
    target, its reset's row key and its bounds on the silent clock, sides
    swapped.  Returns the rewritten guard and ``placed`` for the edges
    below, which gains the row of the edge's own reset (``resets``).

    Only the top-level atoms of ``g`` are rewritten: any other part, a
    top-level disjunction included, must not read ``x_s0``.
    """
    parts = g.parts if isinstance(g, And) else (g,)
    for p in parts:
        if not isinstance(p, Atom):
            if x_s0 in guard_clocks(p):
                raise UnsupportedInputError(
                    f"future guard refers to {x_s0} inside a disjunction: {p}"
                )
        elif p.right is not None and x_s0 in (p.left, p.right):
            raise UnsupportedInputError(
                f"future guard refers to {x_s0} diagonally: {p}"
            )
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


def _reads(g: Guard, clock: Clock) -> bool:
    """Whether ``g`` reads ``clock``; an atom is tested without a set."""
    if isinstance(g, Atom):
        return g.left is clock or g.right is clock
    return clock in guard_clocks(g)


# A rewrite owed by one removed silent step: its silent clock, its Table 2
# rows (``_silent_bounds``), the Table 3 rows of its path so far
# (``_rewrite``'s ``placed``), and its taken guard 0 <= x_{s,0} while at
# its target, else None.
_Owed = tuple[Clock, tuple[_Row, ...], tuple[_Row, ...], Atom | None]


def _pay(g: Guard, resets: frozenset[Clock], owed: Iterable[_Owed],
         memo: dict) -> tuple[Guard, list[_Owed]]:
    """Pay the rewrites ``owed`` on one edge, its guard ``g`` and its reset
    ``resets``: each conjoins its taken guard, then rewrites the guard by
    Tables 2/3 if it reads the silent clock.  Returns the guard and the
    rewrites that the edge's target owes; ``memo`` keeps each result by the
    silent clock and the values that the step reads."""
    below = []
    for x_s0, moved, placed, taken in owed:
        if taken is not None:
            found = memo.get((x_s0, g))
            if found is None:
                found = memo[x_s0, g] = conj(g, taken)
            g = found
        if _reads(g, x_s0):
            # a guard that reads x_s0 is rewritten or raises
            key = (x_s0, g, moved, placed, resets)
            step = memo.get(key)
            if step is None:
                step = memo[key] = _rewrite(g, x_s0, moved, placed, resets)
            g, placed = step
        below.append((x_s0, moved, placed, None))
    return g, below


def _removal(guard: Guard, resets: frozenset[Clock], pred: Optional[Transition],
             memo: dict) -> Optional[tuple[_Owed, Optional[Guard]]]:
    """Algorithm 1 on one silent step, its guard ``guard`` and reset
    ``resets``, ``pred`` the observable edge into its source (None at the
    root).  None when the step can never fire; else the rewrite that the
    guards below its target owe, and the guard of its bypass, the
    predecessor's guard with the enabling guard (None at the root).

    ``memo`` keeps the bound table and Table 2's rows by the silent guard
    and x_s, and the bypass guard by the silent clock and the values that
    it reads."""
    x_s = next(iter(pred.resets)) if pred is not None else X0
    found = memo.get((guard, x_s))
    if found is None:
        found = memo[guard, x_s] = _silent_bounds(guard, x_s)
    bounds, moved = found
    if bounds is None:
        return None
    (x_s0,) = resets
    owed = (x_s0, moved, (), Atom(x_s0, ">=", 0))
    if pred is None:
        return owed, None
    key = (x_s0, pred.guard, guard, x_s)
    g = memo.get(key)
    if g is None:
        g = memo[key] = simplify_conjunction(conj(pred.guard, enabling_guard(bounds, x_s)))
    return owed, g


def remove_all_silent(t: Tree) -> Tree:
    """Algorithm 1 on every silent transition of ``t``, in one walk down
    the tree.

    A silent step that can fire is replaced by its bypass, and its removal
    is owed by the guards below its target (``_Owed``).  The bypass follows
    the edge into the step's source, so a chain of silent steps gives a
    chain of bypasses; the out-edges of a silent target at the root join
    the root's instead.  A silent step that can never fire is dropped with
    its subtree, whose guards still pay what they owe, so that this and
    :func:`stripped_unfolding` reject the same inputs.

    Node ids are the input's.  Edges keep the input's list order, each kept
    observable edge followed by the bypasses that removal puts after it,
    the bypasses of a later silent step first; the walk does not depend on
    that order.  Tree copies of a silent step share its guards: one memo,
    kept for the call, maps the values that each step reads to its result,
    and the guard-building steps key on the silent clock too, so copies
    share a guard only under one silent clock.
    """
    if not t.renamed:
        raise StructuralError("silent removal requires a renamed tree")
    children = t.build_children_index()
    # the steps' keys never meet: they differ in length, and the two pairs,
    # (silent guard, x_s) and (x_{s,0}, guard), in the order of their parts
    memo: dict = {}
    kept: dict[int, Transition] = {}  # kept observable edges, by target
    bypasses: dict[int, list[Transition]] = {}  # by the silent steps' source
    # a node, the edge into it (None at the root and at the root's silent
    # targets, whose out-edges leave the root), the rewrites that it owes
    stack: list[tuple[int, Optional[Transition], list[_Owed]]] = [(t.root, None, [])]
    while stack:
        n, pred, owed = stack.pop()
        for e in children[n]:
            g, below = _pay(e.guard, e.resets, owed, memo)
            if not e.is_silent:
                kept[e.target] = out = Transition(
                    t.root if pred is None else n, e.target, e.action, g, e.resets)
                stack.append((e.target, out, below))
                continue
            step = _removal(g, e.resets, pred, memo)
            if step is None:
                dead = [(e.target, below)]
                while dead:
                    m, owed_m = dead.pop()
                    dead += [(c.target, _pay(c.guard, c.resets, owed_m, memo)[1])
                             for c in children[m]]
                continue
            own, bypass = step
            b = None
            if pred is not None:
                b = Transition(pred.source, e.target, pred.action, bypass, pred.resets)
                bypasses.setdefault(n, []).append(b)
            stack.append((e.target, b, [*below, own]))

    out = Tree(root=t.root, renamed=True)
    for e in t.transitions:
        chain = [kept[e.target]] if e.target in kept else []
        while chain:
            b = chain.pop()
            out.transitions.append(b)
            chain += bypasses.get(b.target, ())
    reached = {t.root, *(e.target for e in out.transitions)}
    out.nodes = {n: info for n, info in t.nodes.items() if n in reached}
    return out


# ---------------------------------------------------------------------------
# the stripped unfolding as a DAG

# A node of the renamed unfolding under removal: model location, observable
# level, silent index, the renamed clock that holds each model clock (in
# sorted model-clock order), and the rewrites that removed silent steps
# above still owe the guards below (``_live``).  Equal nodes root equal
# subtrees.
_Node = tuple


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
    Its out-edges are the ones that :func:`remove_all_silent` gives each
    tree copy of it, in the same order, with the same guards: each
    observable out-edge, followed by the bypasses that removing the silent
    steps below it puts after it, the bypasses of a later silent step
    first.  Each edge pays the rewrites that its node owes (:func:`_pay`)
    as the unfolding grows, and each silent step is removed by
    :func:`_removal`: its target becomes a node that also owes the step's
    rewrite, and its bypass follows the edge into its source with the
    bypass guard.  At the root, the silent targets' out-edges join the
    root's own, in the unfolding's depth-first order.  Every walk is
    iterative.
    """
    out_edges = _out_edges(a, k)
    clocks = sorted(a.clocks)
    expanded: dict[_Node, list[Transition]] = {}
    memo: dict = {}  # as in remove_all_silent

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
            g, owed_below = _pay(g, resets, owed, memo)
            child_held = tuple(fresh if c in t.resets else h for c, h in zip(clocks, held))
            target = (*child, child_held, _live(owed_below, child_held))
            edges.append(Transition(node, target, t.action, g, resets))
        expanded[node] = edges
        return edges

    checked: set[_Node] = set()

    def pruned(node: _Node) -> None:
        """Rewrite every guard below a silent step that can never fire, as
        :func:`remove_all_silent` does before it drops them, so that both
        reject the same inputs."""
        stack = [node]
        while stack:
            n = stack.pop()
            if n not in checked:
                checked.add(n)
                stack.extend(e.target for e in expand(n))

    def removals(node: _Node, pred: Optional[Transition]) -> list[tuple[_Node, Optional[Guard]]]:
        """The node's silent steps that can fire, in order, ``pred`` the
        edge into the node, each as its target owing the rewrite of its
        removal and its bypass guard (:func:`_removal`); the others are
        pruned."""
        out = []
        for s in expand(node):
            if s.is_silent:
                step = _removal(s.guard, s.resets, pred, memo)
                if step is None:
                    pruned(s.target)
                else:
                    own, bypass = step
                    loc, level, index, held, owed = s.target
                    out.append(((loc, level, index, held, (*owed, own)), bypass))
        return out

    def bypassed(obs: list[Transition]) -> list[Transition]:
        """``obs``, each followed by the bypasses that removal puts after it."""
        out = []
        stack = obs[::-1]
        while stack:
            e = stack.pop()
            out.append(e)
            stack += [Transition(e.source, target, e.action, g, e.resets)
                      for target, g in removals(e.target, e)]
        return out

    root: _Node = (a.initial, 0, None, (X0,) * len(clocks), ())
    # silent steps from the root have no bypass: their targets' out-edges
    # join the root's, in depth-first order of the targets
    obs: list[Transition] = []
    stack = [root]
    while stack:
        node = stack.pop()
        obs += [e for e in expand(node) if not e.is_silent]
        stack += [target for target, _ in removals(node, None)][::-1]

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
