"""Shared graph algorithms: the backward-closure worklist, the forward
search, its numbering and the strongly connected components."""

import random

from fairchk.graph import closure, cyclic, numbered, reach, reverse, tarjan

from oracles import closure_kleene, reach_kleene, tarjan_rescan


def test_closure_matches_kleene_oracle():
    rnd = random.Random(64)
    seen = {"grown": 0, "held back": 0, "absent": 0, "unweighted": 0}
    for _ in range(3000):
        n = rnd.randint(1, 12)
        # repeated successors are repeated edges, and count twice
        succ = {v: [rnd.randrange(n) for _ in range(rnd.randint(0, 3))] for v in range(n)}
        seeds = rnd.sample(range(n), rnd.randint(0, min(3, n)))
        need = None
        if rnd.random() < 0.7:
            need = {v: rnd.randint(1, 3) for v in range(n) if rnd.random() < 0.8}
        # a node absent from the oracle's need needs 0: it joins only as a seed
        inside = closure(seeds, reverse([succ[v] for v in range(n)]),
                         None if need is None else [need.get(v, 0) for v in range(n)])
        got = {v for v in range(n) if inside[v]}
        assert len(inside) == n and got == closure_kleene(succ, seeds, need)
        seen["grown"] += len(got) > len(set(seeds))
        seen["unweighted"] += need is None and len(got) > len(set(seeds))
        if need is not None:
            outside = [v for v in range(n) if v not in got and any(w in got for w in succ[v])]
            seen["held back"] += any(v in need for v in outside)
            seen["absent"] += any(v not in need for v in outside)
    assert all(k > 100 for k in seen.values()), seen


def test_reach_matches_kleene_oracle():
    rnd = random.Random(65)
    seen = {"grown": 0, "repeated root": 0, "stopped early": 0}
    for _ in range(3000):
        n = rnd.randint(1, 12)
        succ = {v: [rnd.randrange(n) for _ in range(rnd.randint(0, 3))] for v in range(n)}
        roots = [rnd.randrange(n) for _ in range(rnd.randint(0, 3))]
        calls = []

        def expand(v):
            calls.append(v)
            return succ[v]

        # a one-pass iterable of roots is enough
        got = list(reach(iter(roots), expand))
        assert len(got) == len(set(got)) and set(got) == reach_kleene(succ, roots)
        first = list(dict.fromkeys(roots))
        assert got[:len(first)] == first
        # every other node comes after a predecessor, and the first
        # predecessors come in order: breadth first
        parents = [min(k for k, u in enumerate(got) if v in succ[u]) for v in got[len(first):]]
        assert all(k < len(first) + i for i, k in enumerate(parents))
        assert parents == sorted(parents)
        assert calls == got
        if got:
            stop = rnd.randrange(len(got))
            calls.clear()
            for k, _ in enumerate(reach(roots, expand)):
                if k == stop:
                    break
            assert calls == got[:stop]
            seen["stopped early"] += stop < len(got) - 1
        seen["grown"] += len(got) > len(first)
        seen["repeated root"] += len(first) < len(roots)
    assert all(k > 100 for k in seen.values()), seen


def test_numbered_follows_reach_and_lists_every_edge():
    rnd = random.Random(67)
    seen = {"parallel": 0, "unreached": 0}
    for _ in range(3000):
        n = rnd.randint(1, 12)
        succ = {v: [rnd.randrange(n) for _ in range(rnd.randint(0, 3))] for v in range(n)}
        root = rnd.randrange(n)
        num, pred = numbered(root, succ.__getitem__)
        order = list(reach([root], succ.__getitem__))
        assert list(num) == order and list(num.values()) == list(range(len(order)))
        assert set(order) == reach_kleene(succ, [root]) and len(pred) == len(order)
        # one predecessor entry per edge, in the order the sources are numbered
        want = [[] for _ in order]
        for v in order:
            for w in succ[v]:
                want[num[w]].append(num[v])
        assert pred == want
        seen["parallel"] += any(len(set(succ[v])) < len(succ[v]) for v in order)
        seen["unreached"] += len(order) < n
    assert all(k > 500 for k in seen.values()), seen


def test_tarjan_matches_rescan_oracle():
    rnd = random.Random(66)
    seen = {"self-loop": 0, "parallel": 0, "unreached": 0, "cycle": 0, "pairs": 0}
    for i in range(3000):
        n = rnd.randint(1, 12)
        # repeated successors are parallel edges; pairs stand for the
        # witness pairs of a subtyping simulation
        names = [(v, rnd.randrange(3)) for v in range(n)] if i % 3 == 0 else list(range(n))
        succ = {v: [names[rnd.randrange(n)] for _ in range(rnd.randint(0, 3))] for v in names}
        nodes = rnd.sample(names, n)
        # number the nodes in root order, and map the components back
        num = {v: k for k, v in enumerate(nodes)}
        got = [[nodes[k] for k in scc]
               for scc in tarjan([[num[w] for w in succ[v]] for v in nodes])]
        assert got == tarjan_rescan(nodes, succ)
        assert sorted(v for scc in got for v in scc) == sorted(names)
        if i % 3 != 0:
            # an occurrence graph: its nodes are already numbers
            assert tarjan([succ[v] for v in range(n)]) == tarjan_rescan(list(range(n)), succ)
        seen["self-loop"] += any(v in succ[v] for v in names)
        seen["parallel"] += any(len(set(ws)) < len(ws) for ws in succ.values())
        seen["unreached"] += any(all(v not in ws for ws in succ.values()) for v in names)
        seen["cycle"] += any(cyclic(scc, succ) and len(scc) > 1 for scc in got)
        seen["pairs"] += i % 3 == 0
    assert all(k > 500 for k in seen.values()), seen
