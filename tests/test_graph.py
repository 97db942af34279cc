"""Shared graph algorithms: the backward-closure worklist, the forward
search and the strongly connected components."""

import random

from fairchk.graph import closure, cyclic, reach, reverse, tarjan

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
        got = closure(seeds, reverse(succ), need)
        assert got == closure_kleene(succ, seeds, need)
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
        got = tarjan(nodes, succ)
        assert got == tarjan_rescan(nodes, succ)
        assert sorted(v for scc in got for v in scc) == sorted(names)
        if i % 3 != 0:
            # an occurrence graph: successor lists indexed by node number
            assert tarjan(nodes, [succ[v] for v in range(n)]) == got
        seen["self-loop"] += any(v in succ[v] for v in names)
        seen["parallel"] += any(len(set(ws)) < len(ws) for ws in succ.values())
        seen["unreached"] += any(all(v not in ws for ws in succ.values()) for v in names)
        seen["cycle"] += any(cyclic(scc, succ) and len(scc) > 1 for scc in got)
        seen["pairs"] += i % 3 == 0
    assert all(k > 500 for k in seen.values()), seen
