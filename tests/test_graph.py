"""Shared graph algorithms: the backward-closure worklist."""

import random

from fairchk.graph import closure, reverse

from oracles import closure_kleene


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

