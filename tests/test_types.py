"""Type-table behavior: interning, dual, plus, equiv, bounds, pair closure."""

import random
import re
import sys
import threading
from collections import Counter
from typing import Optional

import pytest

import fairchk
from fairchk import load
from fairchk import types
from fairchk.types import RENDER_LIMIT, TypeTable, co, dual, equiv, is_bounded

from conftest import CORPUS_RANKS, load_corpus
from gen import (cascade_source, diverging_source, holding_source, intern_spec,
                 random_spec, shared_ladder_source, unfold_root)
from oracles import (dual_recursive, equiv_oracle, reachable_pairs, render_composed,
                     render_recursive)


def plus(table: TypeTable, a: int, b: int) -> Optional[int]:
    """Label-union of two same-polarity choices with disjoint labels.

    Returns None when the merge is undefined (polarity mismatch, a non-tags
    operand, or overlapping labels).
    """
    na, nb = table.node(a), table.node(b)
    if na[0] != "tags" or nb[0] != "tags" or na[1] != nb[1]:
        return None
    la = {l for l, _ in na[2]}
    if la & {l for l, _ in nb[2]}:
        return None
    return table.add(("tags", na[1], na[2] + nb[2]))


def dump(table: TypeTable) -> str:
    """Every filled node as a `type` equation in the surface grammar."""
    lines = []
    for i, n in enumerate(table.nodes):
        if n is None:
            continue
        if n[0] == "end":
            body = f"end{n[1]}"
        elif n[0] == "tags":
            inner = ", ".join(f"{l}: {table._name(c)}" for l, c in n[2])
            body = f"{n[1]}{{{inner}}}"
        else:
            body = f"{n[1]}({table._name(n[2])}).{table._name(n[3])}"
        lines.append(f"type {table._name(i)} = {body}")
    return "\n".join(lines)


def _end(table, pol):
    return table.add(("end", pol))


def _loop(table):
    """R = !{a: R}"""
    r = table.placeholder()
    table.fill(r, ("tags", "!", (("a", r),)))
    return r


def test_add_hash_conses():
    table = TypeTable()
    assert _end(table, "!") == _end(table, "!")
    assert _end(table, "!") != _end(table, "?")


def test_lookup_adds_nothing_and_a_copy_grows_apart():
    table = TypeTable()
    e = _end(table, "!")
    key = ("tags", "!", (("a", e),))
    assert table.lookup(("end", "!")) == e and table.lookup(key) is key
    view = table.copy()
    assert view.add(key) == view.lookup(key) == 1 and view.add(("end", "!")) == e
    assert table.nodes == [("end", "!")] and table.lookup(key) is key


def test_fill_rejects_double_fill():
    table = TypeTable()
    i = table.placeholder()
    table.fill(i, ("end", "!"))
    try:
        table.fill(i, ("end", "?"))
    except ValueError:
        return
    raise AssertionError("second fill must fail")


def test_self_loop_has_one_reachable_node():
    table = TypeTable()
    r = _loop(table)
    assert table.reachable(r) == {r}


def test_bsc_buyer_type_has_two_reachable_nodes(bsc):
    sb = bsc.typedefs["SB"]
    assert len(bsc.table.reachable(sb)) == 2


def test_co_flips():
    assert co("!") == "?" and co("?") == "!"


def test_dual_end():
    table = TypeTable()
    d = dual(table, _end(table, "!"))
    assert table.node(d) == ("end", "?")


def test_dual_bsc_buyer_is_seller(bsc):
    assert equiv(bsc.table, dual(bsc.table, bsc.typedefs["SB"]), bsc.typedefs["SS"])


def test_dual_keeps_payload():
    # only the carrier spine is dualized; the delegated type is shared
    table = TypeTable()
    payload = _end(table, "!")
    c = table.add(("chan", "!", payload, _end(table, "?")))
    d = dual(table, c)
    node = table.node(d)
    assert node[0] == "chan" and node[1] == "?"
    assert node[2] == payload
    assert table.node(node[3]) == ("end", "!")


def test_dual_involution_random():
    rnd = random.Random(11)
    for _ in range(1000):
        table = TypeTable()
        t = intern_spec(table, random_spec(rnd))
        assert equiv(table, dual(table, dual(table, t)), t)


def _dual_both_ways(source: str, name: str) -> tuple[TypeTable, TypeTable]:
    """Tables after `dual` and after `dual_recursive` of one named type,
    each applied to its own load of `source`."""
    done = []
    for fn in (dual, dual_recursive):
        program = load(source)
        fn(program.table, program.typedefs[name])
        done.append(program.table)
    return done[0], done[1]


def _same_table(a: TypeTable, b: TypeTable) -> bool:
    return a.nodes == b.nodes and a.name_hint == b.name_hint


def test_dual_matches_recursive_oracle():
    rnd = random.Random(23)
    for _ in range(2000):
        spec = random_spec(rnd)
        tables = []
        for fn in (dual, dual_recursive):
            table = TypeTable()
            root = intern_spec(table, spec)
            tables.append((table, fn(table, root)))
        (a, da), (b, db) = tables
        assert da == db and _same_table(a, b)


def test_dual_long_chain_matches_recursive_oracle():
    # 1500 named types, each an output choice to the next
    n = 1500
    source = "".join(f"type A{i} = !{{a: A{i + 1}, b: end!}}\n" for i in range(n))
    source += f"type A{n} = end!\nMain() = done\n"
    recursive = None

    def deep():
        nonlocal recursive
        recursive = _dual_both_ways(source, "A0")[1]

    # the oracle recurses once per type: give it frames to spare
    limit = sys.getrecursionlimit()
    size = threading.stack_size(64 * 1024 * 1024)
    try:
        sys.setrecursionlimit(20 * n)
        worker = threading.Thread(target=deep)
        worker.start()
        worker.join(timeout=60)
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive() and recursive is not None
    program = load(source)
    d = fairchk.dual(program.table, program.typedefs["A0"])
    assert _same_table(program.table, recursive)
    assert equiv(program.table, dual(program.table, d), program.typedefs["A0"])


def test_plus_merges_disjoint_outputs():
    table = TypeTable()
    e = _end(table, "!")
    m = plus(table, table.add(("tags", "!", (("a", e),))),
             table.add(("tags", "!", (("b", e),))))
    assert m is not None
    assert table.node(m) == ("tags", "!", (("a", e), ("b", e)))


def test_plus_undefined_on_polarity_mismatch():
    table = TypeTable()
    a = table.add(("tags", "!", (("a", _end(table, "!")),)))
    b = table.add(("tags", "?", (("b", _end(table, "?")),)))
    assert plus(table, a, b) is None


def test_plus_undefined_on_overlap():
    table = TypeTable()
    a = table.add(("tags", "!", (("a", _end(table, "!")),)))
    b = table.add(("tags", "!", (("a", _end(table, "?")),)))
    assert plus(table, a, b) is None


def test_plus_undefined_on_end():
    table = TypeTable()
    assert plus(table, _end(table, "!"), _end(table, "!")) is None


def test_plus_commutative_where_defined():
    rnd = random.Random(12)
    hits = 0
    for _ in range(300):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 4))
        b = intern_spec(table, random_spec(rnd, 4))
        ab, ba = plus(table, a, b), plus(table, b, a)
        assert (ab is None) == (ba is None)
        if ab is not None:
            hits += 1
            assert equiv(table, ab, ba)
    assert hits > 0


def test_equiv_one_step_unfolding():
    table = TypeTable()
    r = _loop(table)
    s = table.add(("tags", "!", (("a", r),)))
    assert equiv(table, r, s)


def test_equiv_distinguishes_polarity():
    table = TypeTable()
    assert not equiv(table, _end(table, "!"), _end(table, "?"))


def test_equiv_matches_expansion_oracle():
    rnd = random.Random(13)
    agree_true = agree_false = 0
    for i in range(200):
        table = TypeTable()
        spec = random_spec(rnd, 5)
        a = intern_spec(table, spec)
        if i % 2 == 0:
            # same tree, different graph
            b = intern_spec(table, unfold_root(spec))
        else:
            b = intern_spec(table, random_spec(rnd, 5))
        got = equiv(table, a, b)
        assert got == equiv_oracle(table, a, b)
        agree_true += got
        agree_false += not got
    assert agree_true > 0 and agree_false > 0


def test_equiv_answers_equal_ids_without_a_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("equiv searched from a pair of equal ids")

    monkeypatch.setattr(types, "reach", no_search)
    asked = 0
    for name in sorted(CORPUS_RANKS):
        table = load_corpus(name).table
        for i, n in enumerate(table.nodes):
            if n is not None:
                assert equiv(table, i, i)
                asked += 1
    assert asked > 50


def test_equiv_matches_expansion_oracle_with_equal_ids():
    rnd = random.Random(15)
    seen = Counter()
    for i in range(2000):
        table = TypeTable()
        spec = random_spec(rnd, 5)
        a = intern_spec(table, spec)
        roll = i % 5
        if roll == 0:
            b = a
        elif roll == 1:
            # a node of a's own graph, often a itself
            b = rnd.choice(sorted(table.reachable(a)))
        elif roll == 2:
            b = intern_spec(table, unfold_root(spec))
        else:
            b = intern_spec(table, random_spec(rnd, 5))
        got = equiv(table, a, b)
        assert got == equiv_oracle(table, a, b)
        seen["equal ids"] += a == b
        seen[got] += 1
    assert seen["equal ids"] >= 200 and seen[True] > seen["equal ids"] and seen[False] > 0, seen


def test_equiv_is_an_equivalence():
    rnd = random.Random(14)
    for _ in range(100):
        table = TypeTable()
        spec = random_spec(rnd, 5)
        a = intern_spec(table, spec)
        b = intern_spec(table, unfold_root(spec))
        c = intern_spec(table, unfold_root(unfold_root(spec)))
        d = intern_spec(table, random_spec(rnd, 5))
        assert equiv(table, a, a)
        assert equiv(table, a, b) == equiv(table, b, a)
        if equiv(table, a, b) and equiv(table, b, c):
            assert equiv(table, a, c)
        assert equiv(table, a, d) == equiv(table, d, a)


def test_is_bounded_examples(bsc):
    assert is_bounded(bsc.table, bsc.typedefs["SB"])
    table = TypeTable()
    assert not is_bounded(table, _loop(table))
    assert is_bounded(table, _end(table, "?"))


def test_is_bounded_needs_every_subtree():
    # one branch ends, the other spins: the type is still unbounded
    table = TypeTable()
    r = _loop(table)
    t = table.add(("tags", "!", (("a", r), ("b", _end(table, "!")))))
    assert not is_bounded(table, t)


def test_reachable_pairs_end():
    table = TypeTable()
    e = _end(table, "!")
    assert reachable_pairs(table, e, e) == {(e, e)}


def test_reachable_pairs_buyer_variants(bsc):
    # SB = !{add: SB, pay: end!} against SB' = !{add: !{add: SB'}, pay: end!}
    table = bsc.table
    sb, sbp = bsc.typedefs["SB"], bsc.typedefs["SB'"]
    inner = dict(table.node(sbp)[2])["add"]
    end_l = dict(table.node(sb)[2])["pay"]
    end_r = dict(table.node(sbp)[2])["pay"]
    assert reachable_pairs(table, sb, sbp) == {(sb, sbp), (sb, inner), (end_l, end_r)}


def test_reachable_pairs_within_product_bound():
    rnd = random.Random(15)
    for _ in range(200):
        table = TypeTable()
        a = intern_spec(table, random_spec(rnd, 6))
        b = intern_spec(table, random_spec(rnd, 6))
        rp = reachable_pairs(table, a, b)
        assert len(rp) <= len(table.reachable(a)) * len(table.reachable(b))
        for (u, v) in rp:
            assert u in table.reachable(a) and v in table.reachable(b)


def test_render_cuts_cycles():
    table = TypeTable()
    r = table.placeholder(hint="R")
    table.fill(r, ("tags", "!", (("a", r),)))
    assert table.render(r) == "!{a: R}"


def test_render_matches_recursive_oracle():
    rnd = random.Random(48)
    for _ in range(500):
        table = TypeTable()
        spec = random_spec(rnd, 10)
        ids = [intern_spec(table, spec, root) for root in range(len(spec))]
        for i in ids:
            assert table.render(i) == render_recursive(table, i)


def test_render_deep_chain():
    # 10^5 composite nodes, one inside the other
    table = TypeTable()
    t = _end(table, "!")
    for _ in range(50_000):
        t = table.add(("chan", "?", _end(table, "?"), table.add(("tags", "?", (("a", t),)))))
    assert table.render(t) == "?(end?).?{a: " * 50_000 + "end!" + "}" * 50_000


@pytest.mark.parametrize("budget", [RENDER_LIMIT, 64, 0])
def test_render_matches_composed_oracle(monkeypatch, budget):
    monkeypatch.setattr(types, "RENDER_LIMIT", budget)
    rnd = random.Random(1212)
    tables = [load_corpus(name).table for name in sorted(CORPUS_RANKS)]
    tables += [load(source(n)).table for source in (shared_ladder_source, diverging_source)
               for n in (1, 4, 13)]
    for _ in range(500):
        table = TypeTable()
        spec = random_spec(rnd, 12)
        ids = [intern_spec(table, spec, root) for root in range(len(spec))]
        # clashing hints and type names, so that names must be made unique
        for j in ids:
            if rnd.random() < 0.3:
                table.name_hint[j] = rnd.choice(["A", "t1", "t2"])
        table.type_names = {h: rnd.choice(ids) for h in ("A", "t1") if rnd.random() < 0.5}
        tables.append(table)
    forms = set()
    for table in tables:
        for i, n in enumerate(table.nodes):
            if n is not None:
                text = table.render(i)
                assert text == render_composed(table, i)
                forms.add(" where " in text)
    assert forms == {True, False}


def test_dump_emits_surface_equations():
    table = TypeTable()
    _end(table, "!")
    text = dump(table)
    assert "= end!" in text


# -- the render budget and the equation form -------------------------------------

def _assert_renders_as_oracle(table: TypeTable, i: int) -> str:
    """Every render that fits the budget, and every render of a type that
    shares no node below its root, is the recursive unfolding; the others
    are in equation form."""
    text = table.render(i)
    if not table._shared(i):
        assert text == render_recursive(table, i)
        return text
    full = render_recursive(table, i)
    if len(full) <= types.RENDER_LIMIT:
        assert text == full
    else:
        assert " where " in text
    return text


def test_render_under_budget_matches_recursive_oracle_on_the_corpus():
    for name in sorted(CORPUS_RANKS):
        table = load_corpus(name).table
        for i, n in enumerate(table.nodes):
            if n is not None:
                _assert_renders_as_oracle(table, i)


def test_render_under_a_small_budget_matches_recursive_oracle(monkeypatch):
    # random draws unfold to far less than the real budget (see
    # test_render_matches_recursive_oracle); a small one puts some past it
    monkeypatch.setattr(types, "RENDER_LIMIT", 64)
    rnd = random.Random(606)
    over = 0
    for _ in range(300):
        table = TypeTable()
        spec = random_spec(rnd, 12)
        for root in range(len(spec)):
            text = _assert_renders_as_oracle(table, intern_spec(table, spec, root))
            over += " where " in text
    assert over > 100


@pytest.mark.parametrize("source,root", [(cascade_source, "A0"), (diverging_source, "U0"),
                                         (diverging_source, "V0"), (holding_source, "W0")])
def test_render_of_unshared_families_ignores_the_budget(source, root):
    for n in (1, 3, 40, 300):
        program = load(source(n))
        _assert_renders_as_oracle(program.table, program.typedefs[root])
    # past the budget, and too deep for the recursive oracle
    program = load(source(1000))
    text = program.table.render(program.typedefs[root])
    assert len(text) > RENDER_LIMIT and " where " not in text
    assert text.count("{") == text.count("}") == 1000


def test_render_budget_boundary(monkeypatch):
    # C's text ends in a leaf, A0's in a closing brace
    for n in range(1, 10):
        program = load(shared_ladder_source(n) + "type C = !(A0).end!\n")
        table = program.table
        for root in ("A0", "C"):
            i = program.typedefs[root]
            full = render_recursive(table, i)
            monkeypatch.setattr(types, "RENDER_LIMIT", len(full))
            assert table.render(i) == full
            monkeypatch.setattr(types, "RENDER_LIMIT", len(full) - 1)
            text = table.render(i)
            assert (" where " in text) == bool(table._shared(i))
            if root == "A0" and n > 1:
                assert text.startswith("!{a: A1, b: A1, c: end!} where ")


def test_render_skips_the_budget_without_sharing_below_the_root(monkeypatch):
    monkeypatch.setattr(types, "RENDER_LIMIT", 0)
    table = TypeTable()
    r = table.placeholder(hint="R")
    table.fill(r, ("tags", "!", (("a", r), ("b", r), ("c", _end(table, "!")))))
    assert table.render(r) == "!{a: R, b: R, c: end!}"
    program = load(diverging_source(5))
    u0 = program.typedefs["U0"]
    assert program.table.render(u0) == render_recursive(program.table, u0)


def test_render_unfolds_an_unshared_type_once_past_the_budget(monkeypatch):
    # U0 of the 300-ladder prints 4502 characters and shares no node, so
    # the budgeted unfolding goes on past the limit instead of starting over
    program = load(diverging_source(300))
    table, u0 = program.table, program.typedefs["U0"]
    shapes = []
    shape = TypeTable._shape

    def counted(self, j):
        shapes.append(j)
        return shape(self, j)

    monkeypatch.setattr(TypeTable, "_shape", counted)
    text = table.render(u0)
    assert len(text) == 4502 > RENDER_LIMIT and not table._shared(u0)
    assert len(shapes) == len(set(shapes)) == len(table.reachable(u0)) == 301


def test_equation_names_are_unique_and_avoid_other_type_names(monkeypatch):
    monkeypatch.setattr(types, "RENDER_LIMIT", 0)
    table = TypeTable()
    end = _end(table, "!")
    root = table.placeholder(hint="R")
    s1 = table.placeholder(hint="co_A")
    s2 = table.placeholder(hint="co_A")
    u = table.placeholder()
    table.fill(s1, ("tags", "!", (("a", end),)))
    table.fill(s2, ("tags", "?", (("a", end),)))
    table.fill(u, ("chan", "!", end, end))
    table.fill(root, ("tags", "!", (("a", s1), ("b", s1), ("c", s2), ("d", s2),
                                   ("e", u), ("f", u))))
    table.type_names = {"R": root, f"t{u}": root}
    assert table.render(root) == (
        f"!{{a: co_A, b: co_A, c: co_A_1, d: co_A_1, e: t{u}_1, f: t{u}_1}} "
        f"where co_A = !{{a: end!}}, co_A_1 = ?{{a: end!}}, t{u}_1 = !(end!).end!")


def test_equation_names_avoid_the_programs_type_names(monkeypatch):
    # the anonymous ?{...} is node 2, shared by both branches of R
    monkeypatch.setattr(types, "RENDER_LIMIT", 0)
    program = load("type R = !{a: ?{p: R, q: R}, b: ?{p: R, q: R}}\ntype t2 = end?\n")
    assert program.table.render(program.typedefs["R"]) == (
        "!{a: t2_1, b: t2_1} where t2_1 = ?{p: R, q: R}")


_NAME_REF = re.compile(r"(?<![A-Za-z0-9_'])[A-Za-z_][A-Za-z0-9_']*(?=[,})]| where |$)")


def _reread(text: str) -> tuple:
    """The equation form as `type` lines, loaded: (program, root name).

    The root is the one name referred to but not defined by an equation;
    when nothing refers to it, any fresh name does.
    """
    inline, _, rest = text.partition(" where ")
    eqs = [e.split(" = ", 1) for e in re.split(r", (?=[A-Za-z_][A-Za-z0-9_']* = )", rest)]
    defined = [name for name, _ in eqs]
    assert len(set(defined)) == len(defined), text
    free = set(_NAME_REF.findall(text)) - set(defined)
    assert len(free) <= 1, (free, text)
    root = free.pop() if free else "Root"
    source = "".join(f"type {name} = {body}\n" for name, body in [(root, inline)] + eqs)
    return load(source), root


def _copy_into(dst: TypeTable, src: TypeTable, i: int) -> int:
    ids = {j: dst.placeholder() for j in sorted(src.reachable(i))}
    for j, k in ids.items():
        n = src.node(j)
        if n[0] == "tags":
            n = ("tags", n[1], tuple((l, ids[c]) for l, c in n[2]))
        elif n[0] == "chan":
            n = ("chan", n[1], ids[n[2]], ids[n[3]])
        dst.fill(k, n)
    return ids[i]


def _assert_rereads_equivalent(table: TypeTable, i: int) -> str:
    text = table.render(i)
    assert " where " in text
    program, root = _reread(text)
    assert equiv(table, i, _copy_into(table, program.table, program.typedefs[root]))
    return text


def test_equation_form_rereads_as_an_equivalent_tree(monkeypatch):
    monkeypatch.setattr(types, "RENDER_LIMIT", 0)
    rnd = random.Random(6060)
    hints = ["A", "B", "t1", "t2", "co_A"]
    drawn = 0
    while drawn < 1000:
        table = TypeTable()
        spec = random_spec(rnd, 10)
        ids = [intern_spec(table, spec, root) for root in range(len(spec))]
        root = rnd.choice(ids)
        if not table._shared(root):
            continue
        # clashing hints and type names, so that names must be made unique
        for j in ids:
            if rnd.random() < 0.4:
                table.name_hint[j] = rnd.choice(hints)
        table.type_names = {h: rnd.choice(ids) for h in hints if rnd.random() < 0.5}
        _assert_rereads_equivalent(table, root)
        drawn += 1


def test_shared_ladder_rereads_as_an_equivalent_tree():
    program = load(shared_ladder_source(20))
    text = _assert_rereads_equivalent(program.table, program.typedefs["A0"])
    body = lambda i: f"!{{a: A{(i + 1) % 20}, b: A{(i + 1) % 20}, c: end!}}"
    assert text == f"{body(0)} where " + ", ".join(f"A{i} = {body(i)}" for i in range(1, 20))


def test_render_finds_the_shared_nodes_once(monkeypatch):
    # past RENDER_LIMIT, the unfolding hands the shared nodes it found to
    # the equation form, which does not look for them again
    program = load(shared_ladder_source(16))
    a0, table = program.typedefs["A0"], program.table
    calls = []
    shared = TypeTable._shared
    monkeypatch.setattr(TypeTable, "_shared", lambda self, i: calls.append(i) or shared(self, i))
    assert table.render(a0).startswith("!{a: A1, b: A1, c: end!} where A1 = ")
    assert calls == [a0]
