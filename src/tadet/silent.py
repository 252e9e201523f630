"""Removal of silent transitions from a renamed unfolded tree.

Each round removes the first-from-root silent transition by building a
bypass transition guarded with the enabling guard, conjoining the taken
guard onto the silent target's successors, rewriting every future guard
that refers to the silent transition's reset clock, and adding
synchronization constraints between such future guards on the same path.
The output accepts exactly the same observable timed traces.

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
    Clock,
    FalseGuard,
    Guard,
    StructuralError,
    Transition,
    TrueGuard,
    UnsupportedInputError,
    X0,
    conj,
    simplify_conjunction,
)
from .unfold import Tree, TreeNode


@dataclass
class SilentContext:
    """Everything Algorithm 1 needs about one first-from-root silent transition."""

    silent: Transition          # tau_{s,0}
    silent_clock: Clock         # x_{s,0}, the clock reset on it
    source: int                 # q_s
    target: int                 # q_{s,0}
    predecessor: Optional[Transition]  # tau_s, observable edge into q_s (None at root)
    reset_clock: Clock          # x_s: reset of tau_s, or x_0 at the root
    augmented_guard: Guard      # g'_{s,0} = g_{s,0} & (0 <= x_s)


# -- bounds bookkeeping ------------------------------------------------------
# a guard conjunction is viewed as lower bounds (m rel x) and upper bounds
# (x rel n); equalities contribute one weak bound on each side.


def _split_bounds(atoms: list[Atom]) -> tuple[list[tuple[Clock, int, bool]], list[tuple[Clock, int, bool]]]:
    lowers: list[tuple[Clock, int, bool]] = []  # (clock, m, strict)
    uppers: list[tuple[Clock, int, bool]] = []  # (clock, n, strict)
    for a in atoms:
        if a.right is not None:
            raise UnsupportedInputError(f"diagonal atom {a} not allowed here")
        if a.rel == ">" or a.rel == ">=":
            lowers.append((a.left, a.bound, a.rel == ">"))
        elif a.rel == "<" or a.rel == "<=":
            uppers.append((a.left, a.bound, a.rel == "<"))
        else:  # '=' treated as n <= x <= n
            lowers.append((a.left, a.bound, False))
            uppers.append((a.left, a.bound, False))
    return lowers, uppers


def _unary_conjunction_atoms(g: Guard) -> list[Atom]:
    if isinstance(g, TrueGuard):
        return []
    if isinstance(g, Atom):
        atoms = [g]
    elif isinstance(g, And) and all(isinstance(p, Atom) for p in g.parts):
        atoms = list(g.parts)
    else:
        raise UnsupportedInputError(f"silent guard must be a conjunction of atoms: {g}")
    for a in atoms:
        if a.right is not None:
            raise UnsupportedInputError(f"silent guard must be unary, got {a}")
    return atoms


def build_context(tree: Tree, silent: Transition) -> SilentContext:
    pred = next((t for t in tree.transitions if t.target == silent.source), None)
    return _context(silent, pred)


def _context(silent: Transition, pred: Optional[Transition]) -> SilentContext:
    if pred is not None and pred.is_silent:
        raise StructuralError("not a first-from-root silent transition")
    x_s = next(iter(pred.resets)) if pred is not None else X0
    (x_s0,) = silent.resets
    g_aug = conj(silent.guard, Atom(x_s, ">=", 0))
    return SilentContext(
        silent=silent,
        silent_clock=x_s0,
        source=silent.source,
        target=silent.target,
        predecessor=pred,
        reset_clock=x_s,
        augmented_guard=g_aug,
    )


def enabling_guard(ctx: SilentContext) -> Guard:
    """Constraints under which the silent transition would still have been
    satisfiable at some non-negative delay after the bypass.

    Every (lower bound on x_i, upper bound on x_j) pair with i != j yields
    x_j - x_i < n_j - m_i (weak only when both sources are weak); pairs
    involving x_s lose the x_s term since x_s is reset on the bypass.
    """
    atoms = _unary_conjunction_atoms(ctx.augmented_guard)
    lowers, uppers = _split_bounds(atoms)
    x_s = ctx.reset_clock
    out: list[Guard] = []
    for (xi, m, s_lo) in lowers:
        for (xj, n, s_up) in uppers:
            strict = s_lo or s_up
            rel = "<" if strict else "<="
            if xi == xj:
                # same clock: the pair degenerates to a constant check
                if m > n or (m == n and strict):
                    return FALSE
                continue
            if xi == x_s:
                # x_j - 0 rel n - m
                out.append(Atom(xj, rel, n - m))
            elif xj == x_s:
                # 0 - x_i rel n - m  =>  x_i  >rel  m - n
                out.append(Atom(xi, ">" if strict else ">=", m - n))
            else:
                out.append(Atom(xj, rel, n - m, xi))
    return simplify_conjunction(conj(*out))


def taken_guard(ctx: SilentContext) -> Guard:
    """0 <= x_{s,0}: placed on every transition leaving the silent target."""
    return Atom(ctx.silent_clock, ">=", 0)


def _updated_atoms(
    ctx: SilentContext,
    future_atoms: list[Atom],
    silent_lowers: list[tuple[Clock, int, bool]],
    silent_uppers: list[tuple[Clock, int, bool]],
    exact: Optional[tuple[Clock, int]],
) -> list[Atom]:
    """Table-2 replacement of future constraints on x_{s,0}."""
    out: list[Atom] = []
    if exact is not None:
        xi, ni = exact
        for a in future_atoms:
            out.append(Atom(xi, a.rel, ni + a.bound))
        return out
    f_lowers, f_uppers = _split_bounds(future_atoms)
    for (_, mf, s_f) in f_lowers:
        for (xi, mi, s_i) in silent_lowers:
            strict = s_f or s_i
            out.append(Atom(xi, ">" if strict else ">=", mi + mf))
    for (_, nf, s_f) in f_uppers:
        for (xi, ni, s_i) in silent_uppers:
            strict = s_f or s_i
            out.append(Atom(xi, "<" if strict else "<=", ni + nf))
    return out


def _sync_atoms(
    earlier_atoms: list[Atom],
    earlier_reset: Clock,
    later_atoms: list[Atom],
) -> list[Atom]:
    """Table-3 synchronization between two future guards on the same path.

    ``earlier`` fired first (resetting ``earlier_reset``); the produced
    atoms constrain that clock on the later transition.
    """
    e_lowers, e_uppers = _split_bounds(earlier_atoms)
    l_lowers, l_uppers = _split_bounds(later_atoms)
    out: list[Atom] = []
    for (_, mj, s_j) in l_lowers:
        for (_, ni, s_i) in e_uppers:
            strict = s_j or s_i
            out.append(Atom(earlier_reset, ">" if strict else ">=", mj - ni))
    for (_, nj, s_j) in l_uppers:
        for (_, mi, s_i) in e_lowers:
            strict = s_j or s_i
            out.append(Atom(earlier_reset, "<" if strict else "<=", nj - mi))
    return out


def _guard_split_on(g: Guard, clock: Clock) -> tuple[list[Atom], list[Guard]]:
    """Partition a conjunction into atoms on ``clock`` and the rest."""
    if isinstance(g, (TrueGuard, FalseGuard)):
        return [], [g]
    if isinstance(g, Atom):
        parts: list[Guard] = [g]
    elif isinstance(g, And):
        parts = list(g.parts)
    else:
        raise UnsupportedInputError(f"expected a conjunction, got {g}")
    on: list[Atom] = []
    rest: list[Guard] = []
    for p in parts:
        if isinstance(p, Atom) and (p.left == clock or p.right == clock):
            if p.right is not None:
                raise UnsupportedInputError(
                    f"future guard refers to {clock} diagonally: {p}"
                )
            on.append(p)
        else:
            rest.append(p)
    return on, rest


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
    atoms = _unary_conjunction_atoms(ctx.augmented_guard)
    silent_lowers, silent_uppers = _split_bounds(atoms)
    exact = next(((a.left, a.bound) for a in atoms if a.rel == "="), None)

    tg = taken_guard(ctx)
    for s in edges.out[ctx.target]:
        edges.replace(s, ctx.target, conj(edges.edge[s].guard, tg))

    # depth-first over edges; ``placed`` holds the rewritten ancestors'
    # resets and original atoms on the silent clock
    stack: list[tuple[int, list[tuple[Clock, list[Atom]]]]] = [
        (s, []) for s in reversed(edges.out[ctx.target])
    ]
    while stack:
        s, placed = stack.pop()
        t = edges.edge[s]
        on, rest = _guard_split_on(t.guard, x_s0)
        if on:
            if isinstance(simplify_conjunction(conj(*on)), FalseGuard):
                # contradictory constraints on the silent clock
                new_guard: Guard = FALSE
            else:
                replaced = _updated_atoms(ctx, on, silent_lowers, silent_uppers, exact)
                sync: list[Atom] = []
                for earlier_reset, earlier_atoms in placed:
                    sync.extend(_sync_atoms(earlier_atoms, earlier_reset, on))
                new_guard = simplify_conjunction(conj(*rest, *replaced, *sync))
            edges.replace(s, t.source, new_guard)
            (own_reset,) = t.resets
            placed = placed + [(own_reset, on)]
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
    for info in t.nodes.values():
        if not isinstance(info.invariant, TrueGuard):
            raise UnsupportedInputError(
                "transformation pipeline supports only trivial location invariants"
            )
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
        # an unsatisfiable silent guard leaves the augmented guard unsatisfiable
        ctx = _context(silent, None if p is None else edges.edge[p])
        if (isinstance(simplify_conjunction(ctx.augmented_guard), FalseGuard)
                or (p is None and isinstance(enabling_guard(ctx), FalseGuard))):
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
