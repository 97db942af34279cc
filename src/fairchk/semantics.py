"""Type-level transition system: configurations, compatibility, session rank.

Two endpoint types running against each other form a configuration. The
left or right side may internally commit to one branch of an output choice
(a pick, silent), and the two sides synchronize on complementary visible
actions: matching tag labels, matching signals, or channel payloads equal
up to unfolding. Compatibility asks that every reachable configuration can
still reach a terminated pair; the session rank measures how many
synchronizations the shortest terminating schedule needs. Both, and the
DOT printer behind `graph`, are one forward search each over `moves`; no
question stores the configuration graph.

A configuration's side is a table id, or a pick the table does not hold:
the one-branch output node itself, a tuple that the question keeps and
the table never sees. A pick equal to a node the table holds is that
node's id, so equal sides are one side either way.
"""

from __future__ import annotations

from .graph import closure, numbered, reach
from .types import INF, OUT, TypeTable, equiv

Side = int | tuple
Config = tuple[Side, Side]


def _picks(table: TypeTable, branches: tuple) -> list[Side]:
    """Silent pick successors of an output with several branches: the
    one-branch output of each branch, in label order, as its id when the
    table holds it and as the node itself when not. A one-branch output
    has none: its self-loop is contracted."""
    return [table.lookup(("tags", OUT, (branch,))) for branch in sorted(branches)]


def moves(table: TypeTable, cfg: Config
          ) -> tuple[list[Config], list[tuple[str | int, Config]], bool]:
    """A configuration's picks, its synchronization if it has one, and
    whether it is a success: both sides ended, with dual polarities. This
    is the one transition function every question below searches. Labels
    are unique within a node, so two nodes synchronize in at most one way,
    and each side's node is read once."""
    a, b = cfg
    na = a if type(a) is tuple else table.node(a)
    nb = b if type(b) is tuple else table.node(b)
    tau = []
    if na[1] == OUT and na[0] == "tags" and len(na[2]) > 1:
        tau = [(a2, b) for a2 in _picks(table, na[2])]
    if nb[1] == OUT and nb[0] == "tags" and len(nb[2]) > 1:
        tau += [(a, b2) for b2 in _picks(table, nb[2])]
    sync = []
    kind = na[0]
    if kind != nb[0] or na[1] == nb[1]:
        return tau, sync, False
    if kind == "end":
        return tau, sync, True
    if kind == "chan":
        if equiv(table, na[2], nb[2]):
            sync.append((na[2], (na[3], nb[3])))
    else:
        sender, receiver = (na, nb) if na[1] == OUT else (nb, na)
        if len(sender[2]) == 1:
            [(label, c)] = sender[2]
            for key, d in receiver[2]:
                if key == label:
                    sync.append((label, (c, d) if sender is na else (d, c)))
                    break
    return tau, sync, False


def compatible(table: TypeTable, s: int, t: int) -> bool:
    """Every reachable configuration must still be able to terminate.

    One forward search numbers the configurations and keeps the successes
    and the predecessors of each; the configurations that can terminate
    are one backward closure from the successes.
    """
    success: list[Config] = []

    def expand(c: Config) -> list[Config]:
        tau, sync, done = moves(table, c)
        if done:
            success.append(c)
        return tau + [d for _, d in sync]

    num, pred = numbered((s, t), expand)
    return all(closure([num[c] for c in success], pred))


def session_rank(table: TypeTable, s: int, t: int) -> int | float:
    """One plus the synchronization length of the shortest terminating run.

    Picks are free and synchronizations cost one, so the configurations
    are searched in layers: layer d holds the configurations first reached
    after d synchronizations, closed under picks. A configuration is
    expanded once, when its layer meets it, and the search stops at the
    first success.
    """
    seen: set[Config] = set()
    roots = [(s, t)]
    d = 0
    while roots:
        picks: dict[Config, list[Config]] = {}
        later: list[Config] = []
        # `reach` asks for a configuration's picks only after the loop has
        # stored them
        for c in reach([c for c in roots if c not in seen], picks.pop):
            tau, sync, done = moves(table, c)
            if done:
                return 1 + d
            seen.add(c)
            picks[c] = [e for e in tau if e not in seen]
            later += [e for _, e in sync]
        roots = later
        d += 1
    return INF


def to_dot(table: TypeTable, s: int, t: int) -> str:
    """GraphViz rendering of the configurations reachable from (s, t);
    success configurations are double-circled.

    One forward search numbers each configuration as it meets it and
    writes its node line then; the edges wait until every target has a
    number, and follow in the same order. A pick side is rendered from a
    copy of the table, which takes it as a node the first time it prints.
    """
    view = table.copy()
    ids: dict[Config, str] = {}
    edges: list[tuple] = []
    succ: dict[Config, list[Config]] = {}

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph config {", "  rankdir=LR;"]
    # `reach` asks for a configuration's successors only after the loop
    # has stored them
    for c in reach([(s, t)], succ.pop):
        ids[c] = n = f"n{len(ids)}"
        tau, sync, done = moves(table, c)
        a, b = (side if type(side) is int else view.add(side) for side in c)
        label = esc(f"{view.render(a)} # {view.render(b)}")
        shape = "doublecircle" if done else "ellipse"
        lines.append(f'  {n} [label="{label}", shape={shape}];')
        edges.append((n, tau, sync))
        succ[c] = tau + [d for _, d in sync]
    for n, tau, sync in edges:
        for d in tau:
            lines.append(f'  {n} -> {ids[d]} [label="pick", style=dashed];')
        for label, d in sync:
            if isinstance(label, int):
                label = f"({view.render(label)})"
            lines.append(f'  {n} -> {ids[d]} [label="{esc(label)}"];')
    lines.append("}")
    return "\n".join(lines)
