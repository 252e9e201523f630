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
"""

from __future__ import annotations

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
    Or,
    StructuralError,
    Transition,
    UnsupportedInputError,
    X0,
    add_bounds,
    conj,
    conjunction_atoms,
    empty_interval,
    guard_clocks,
    raw_add,
    simplify_conjunction,
    table_guard,
    tighten,
)
from .unfold import Tree, TreeNode


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


def build_context(tree: Tree, silent: Transition) -> SilentContext:
    pred = next((t for t in tree.transitions if t.target == silent.source), None)
    return _context(silent, pred)


def _context(silent: Transition, pred: Optional[Transition]) -> SilentContext:
    if pred is not None and pred.is_silent:
        raise StructuralError("not a first-from-root silent transition")
    x_s = next(iter(pred.resets)) if pred is not None else X0
    (x_s0,) = silent.resets
    g_aug = conj(silent.guard, Atom(x_s, ">=", 0))
    atoms = conjunction_atoms(g_aug)
    bounds = exact = None
    if atoms is None and not isinstance(g_aug, FalseGuard):
        raise UnsupportedInputError(f"silent guard must be a conjunction of atoms: {g_aug}")
    if atoms is not None:
        bounds = add_bounds({}, atoms)
        if any(empty_interval(lo, up) for lo, up in bounds.values()):
            bounds = None
        else:
            for a in atoms:
                if a.right is not None:
                    raise UnsupportedInputError(f"silent guard must be unary, got {a}")
            exact = next((a.left for a in atoms if a.rel == "="), None)
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

    def prune(self, s: int, nodes: dict[int, TreeNode]) -> None:
        """Drop an edge that can never fire, together with everything below it."""
        stack = [self.edge[s].target]
        self.remove(s)
        while stack:
            n = stack.pop()
            del nodes[n], self.into[n]
            for c in self.out.pop(n):
                stack.append(self.edge[c].target)
                self.edge[c] = None

    def transitions(self) -> list[Transition]:
        out: list[Transition] = []
        s = 0 if self.edge else -1
        while s != -1:
            if self.edge[s] is not None:
                out.append(self.edge[s])
            s = self.after[s]
        return out


def _update_future_guards(ctx: SilentContext, edges: _Edges) -> None:
    """Conjoin the taken guard onto the silent target's out-edges, rewrite
    every guard below the target that reads the silent clock, and
    synchronize pairs of such guards on a common path.
    """
    x_s0 = ctx.silent_clock
    tg = taken_guard(ctx)
    for s in edges.out[ctx.target]:
        edges.replace(s, ctx.target, conj(edges.edge[s].guard, tg))

    # Table 2 moves a future guard's bounds on the silent clock onto these
    # rows of the silent guard.  With an exact silent guard x_i = n_i the
    # step fired at x_i = n_i, so x_i = x_{s,0} + n_i: only x_i's row is used
    moved = list(ctx.bounds.items())
    if ctx.exact is not None:
        moved = [((ctx.exact, None), ctx.bounds[(ctx.exact, None)])]
    # depth-first over edges; ``placed`` holds, for each rewritten ancestor,
    # its reset's row key and its bounds on the silent clock, sides swapped
    stack: list[tuple[int, list[tuple[tuple[Clock, None], list]]]] = [
        (s, []) for s in reversed(edges.out[ctx.target])
    ]
    while stack:
        s, placed = stack.pop()
        t = edges.edge[s]
        g = t.guard
        if isinstance(g, Or):
            raise UnsupportedInputError(f"expected a conjunction, got {g}")
        parts = g.parts if isinstance(g, And) else (g,)
        reads = False
        for p in parts:
            if not isinstance(p, Atom):
                # only top-level atoms are rewritten
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
        if reads:
            bounds = add_bounds({}, (p for p in parts if isinstance(p, Atom)))
            on = bounds.pop((x_s0, None))
            if empty_interval(*on):
                # contradictory constraints on the silent clock
                new_guard: Guard = FALSE
            else:
                # Table 2, then Table 3: an ancestor's reset clock r is
                # bounded here by the differences of the two guards'
                # bounds on the silent clock
                for key, row in moved + placed:
                    _add_sums(bounds, key, row, on)
                new_guard = conj(*(p for p in parts if not isinstance(p, Atom)),
                                 table_guard(bounds))
            edges.replace(s, t.source, new_guard)
            (own_reset,) = t.resets
            placed = placed + [((own_reset, None), on[::-1])]
        stack.extend((c, placed) for c in reversed(edges.out[t.target]))


def remove_all_silent(t: Tree) -> Tree:
    """Iterate Algorithm 1 until no silent transitions remain.

    Each round removes the first silent transition in depth-first
    (transition-list) order.  The search resumes after each round instead
    of restarting from the root: a round leaves everything before the
    popped node unchanged, so the search goes on at that node, and after a
    bypass at the silent target, now the node's next sibling.
    """
    if not t.renamed:
        raise StructuralError("silent removal requires a renamed tree")
    out = t.copy()
    edges = _Edges(out)
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
        p = edges.into.get(n)
        ctx = _context(silent, None if p is None else edges.edge[p])
        if ctx.bounds is None:
            edges.prune(s, out.nodes)
            stack.append(n)
            continue
        edges.remove(s)
        if p is not None:
            pred = ctx.predecessor
            edges.insert_after(p, Transition(
                pred.source,
                ctx.target,
                pred.action,
                simplify_conjunction(conj(pred.guard, enabling_guard(ctx))),
                frozenset((ctx.reset_clock,)),
            ))
        _update_future_guards(ctx, edges)
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
