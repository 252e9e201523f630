"""Removal of silent transitions from a renamed unfolded tree.

Each round removes the first-from-root silent transition by building a
bypass transition guarded with the enabling guard, conjoining the taken
guard onto the silent target's successors, rewriting every future guard
that refers to the silent transition's reset clock, and adding
synchronization constraints between such future guards on the same path.
The output accepts exactly the same observable timed traces.
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
from .unfold import Tree


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
    pred = None
    for t in tree.transitions:
        if t.target == silent.source:
            pred = t
            break
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


def build_bypass(ctx: SilentContext, tree: Tree) -> Tree:
    """Insert the bypass transition that replaces taking the silent step.

    The bypass copies the observable predecessor's action and reset and
    conjoins the enabling guard, targeting the silent transition's target
    directly.  Requires a non-root silent source.
    """
    if ctx.predecessor is None:
        raise StructuralError("root-silent case needs no bypass")
    pred = ctx.predecessor
    bypass = Transition(
        pred.source,
        ctx.target,
        pred.action,
        simplify_conjunction(conj(pred.guard, enabling_guard(ctx))),
        frozenset((ctx.reset_clock,)),
    )
    pos = next(i for i, t in enumerate(tree.transitions) if id(t) == id(pred))
    tree.transitions.insert(pos + 1, bypass)
    return tree


def _apply_taken_guard(ctx: SilentContext, tree: Tree) -> None:
    tg = taken_guard(ctx)
    for i, t in enumerate(tree.transitions):
        if t.source == ctx.target:
            tree.transitions[i] = Transition(
                t.source, t.target, t.action, conj(t.guard, tg), t.resets
            )


def update_future_guards(ctx: SilentContext, tree: Tree) -> Tree:
    """Rewrite every guard below the silent target that reads its clock,
    synchronize pairs of such guards on a common path, and drop the
    silent transition.
    """
    x_s0 = ctx.silent_clock
    atoms = _unary_conjunction_atoms(ctx.augmented_guard)
    silent_lowers, silent_uppers = _split_bounds(atoms)
    exact: Optional[tuple[Clock, int]] = None
    for a in atoms:
        if a.rel == "=":
            exact = (a.left, a.bound)
            break

    children = tree.build_children_index()
    index_of = {id(t): i for i, t in enumerate(tree.transitions)}

    def walk(nid: int, placed: list[tuple[Clock, list[Atom]]]) -> None:
        for t in children[nid]:
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
                tree.transitions[index_of[id(t)]] = Transition(
                    t.source, t.target, t.action, new_guard, t.resets
                )
                (own_reset,) = t.resets
                walk(t.target, placed + [(own_reset, on)])
            else:
                walk(t.target, placed)

    walk(ctx.target, [])
    tree.transitions = [t for t in tree.transitions if id(t) != id(ctx.silent)]
    return tree


def remove_one(tree: Tree, ctx: SilentContext) -> None:
    """One round of removal: bypass, taken guard, future update, cleanup."""
    if ctx.predecessor is not None:
        build_bypass(ctx, tree)
    elif isinstance(enabling_guard(ctx), FalseGuard):
        # a root silent transition that can never fire
        _prune_subtree(tree, ctx.silent)
        return
    _apply_taken_guard(ctx, tree)
    update_future_guards(ctx, tree)
    if ctx.predecessor is None:
        # silent from the root: attach the target's subtree to the root
        for i, t in enumerate(tree.transitions):
            if t.source == ctx.target:
                tree.transitions[i] = Transition(ctx.source, t.target, t.action, t.guard, t.resets)
        del tree.nodes[ctx.target]


def _first_silent(tree: Tree) -> Optional[Transition]:
    """First silent transition in depth-first (transition list) order."""
    children = tree.build_children_index()
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        kids = children[nid]
        for t in kids:
            if t.is_silent:
                return t
        stack.extend(t.target for t in reversed(kids))
    return None


def remove_all_silent(t: Tree) -> Tree:
    """Iterate Algorithm 1 until no silent transitions remain."""
    if not t.renamed:
        raise StructuralError("silent removal requires a renamed tree")
    for info in t.nodes.values():
        if not isinstance(info.invariant, TrueGuard):
            raise UnsupportedInputError(
                "transformation pipeline supports only trivial location invariants"
            )
    out = t.copy()
    while True:
        silent = _first_silent(out)
        if silent is None:
            break
        if isinstance(simplify_conjunction(silent.guard), FalseGuard):
            _prune_subtree(out, silent)
            continue
        ctx = build_context(out, silent)
        if isinstance(simplify_conjunction(ctx.augmented_guard), FalseGuard):
            _prune_subtree(out, silent)
            continue
        remove_one(out, ctx)
    return out


def _prune_subtree(tree: Tree, edge: Transition) -> None:
    """Drop an edge that can never fire, together with everything below it."""
    children = tree.build_children_index()
    doomed = {edge.target}
    stack = [edge.target]
    while stack:
        for t in children[stack.pop()]:
            doomed.add(t.target)
            stack.append(t.target)
    tree.transitions = [
        t for t in tree.transitions
        if id(t) != id(edge) and t.source not in doomed
    ]
    tree.nodes = {n: i for n, i in tree.nodes.items() if n not in doomed}
