"""Reading a DAG-shaped output as the tree that it unfolds to."""

from dataclasses import replace

from tadet.unfold import Tree, TreeNode


def path_count(dag: Tree) -> int:
    """The number of paths from the root, the empty one included: the
    location count of the tree that ``dag`` unfolds to."""
    children = dag.build_children_index()
    below: dict[int, int] = {}
    stack = [(dag.root, False)]
    while stack:
        nid, done = stack.pop()
        if done:
            below[nid] = 1 + sum(below[t.target] for t in children[nid])
        elif nid not in below:
            stack.append((nid, True))
            stack.extend((t.target, False) for t in children[nid])
    return below[dag.root]


def unfolded(dag: Tree) -> Tree:
    """The tree that ``dag`` unfolds to: one location per root path,
    numbered in depth-first preorder, each with its DAG location's
    out-edges in their order."""
    children = dag.build_children_index()
    out = Tree(root=0, renamed=dag.renamed)
    # (the tree location above, the DAG location, the edge between them)
    stack = [(None, dag.root, None)]
    while stack:
        source, nid, edge = stack.pop()
        copy = len(out.nodes)
        info = dag.nodes[nid]
        out.nodes[copy] = TreeNode(info.origin, info.obs_level, info.silent_index, info.accepting)
        if edge is not None:
            out.transitions.append(replace(edge, source=source, target=copy))
        stack.extend((copy, t.target, t) for t in reversed(children[nid]))
    return out
