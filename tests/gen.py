"""Random generators shared by the property tests.

Regular types are built as "specs": plain lists of node tuples whose child
references are list indices. A spec can be interned into any TypeTable and
mutated structurally, which is how the subtyping chains are produced.
"""

import random

from fairchk.subtyping import fair_subtype, simulate
from fairchk.surface import (MAX_NESTING, Call, Cast, ChanIn, ChanOut, Choice, Close,
                             Done, NewSession, ProcDef, Program, SourceError,
                             SourceProgram, TagComm, TChan, TEnd, TName, TTags,
                             Wait, load, parse, render_program)
from fairchk.types import TypeTable

LABELS = ["a", "b", "c", "d"]
IDENTS = ["x", "y", "z", "w"]
DEFS = ["P0", "P1", "P2"]


# -- regular types as index specs ---------------------------------------------

def random_spec(rnd: random.Random, max_nodes: int = 8) -> list:
    n = rnd.randint(1, max_nodes)
    spec = []
    for _ in range(n):
        roll = rnd.random()
        if roll < 0.35 or n == 1:
            spec.append(("end", rnd.choice("!?")))
        elif roll < 0.9:
            k = rnd.randint(1, 3)
            labels = sorted(rnd.sample(LABELS, k))
            spec.append(("tags", rnd.choice("!?"),
                         tuple((l, rnd.randrange(n)) for l in labels)))
        else:
            spec.append(("chan", rnd.choice("!?"),
                         rnd.randrange(n), rnd.randrange(n)))
    return spec


def intern_spec(table: TypeTable, spec: list, root: int = 0) -> int:
    ids = [table.placeholder() for _ in spec]
    for i, node in enumerate(spec):
        if node[0] == "end":
            table.fill(ids[i], node)
        elif node[0] == "tags":
            table.fill(ids[i], ("tags", node[1],
                                tuple((l, ids[j]) for l, j in node[2])))
        else:
            table.fill(ids[i], ("chan", node[1], ids[node[2]], ids[node[3]]))
    return ids[root]


def spec_children(node: tuple) -> list[int]:
    if node[0] == "tags":
        return [j for _, j in node[2]]
    if node[0] == "chan":
        return [node[2], node[3]]
    return []


def spec_reachable(spec: list, root: int = 0) -> set[int]:
    seen = {root}
    todo = [root]
    while todo:
        for j in spec_children(spec[todo.pop()]):
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


# -- supertype-preserving mutations -------------------------------------------

def widen_input(spec: list, rnd: random.Random):
    """Add a fresh branch to some reachable external choice."""
    targets = [i for i in spec_reachable(spec)
               if spec[i][0] == "tags" and spec[i][1] == "?"
               and len(spec[i][2]) < len(LABELS)]
    if not targets:
        return None
    i = rnd.choice(targets)
    used = {l for l, _ in spec[i][2]}
    label = rnd.choice([l for l in LABELS if l not in used])
    out = list(spec)
    out.append(("end", rnd.choice("!?")))
    out[i] = ("tags", "?", tuple(sorted(spec[i][2] + ((label, len(spec)),))))
    return out


def narrow_output(spec: list, rnd: random.Random):
    """Drop one branch of some reachable internal choice."""
    targets = [i for i in spec_reachable(spec)
               if spec[i][0] == "tags" and spec[i][1] == "!"
               and len(spec[i][2]) >= 2]
    if not targets:
        return None
    i = rnd.choice(targets)
    drop = rnd.randrange(len(spec[i][2]))
    out = list(spec)
    out[i] = ("tags", "!", spec[i][2][:drop] + spec[i][2][drop + 1:])
    return out


def unfold_root(spec: list) -> list:
    """Duplicate the root node; same tree, different graph."""
    def shift(node):
        if node[0] == "end":
            return node
        if node[0] == "tags":
            return ("tags", node[1], tuple((l, j + 1) for l, j in node[2]))
        return ("chan", node[1], node[2] + 1, node[3] + 1)

    return [shift(spec[0])] + [shift(n) for n in spec]


def supertype_of(spec: list, rnd: random.Random, tries: int = 6) -> list:
    """A mutated spec verified to be a fair supertype of `spec`.

    Dropping an output branch can cut off the only terminating path, so
    each candidate is checked and the unfolded root (weight 0) is the
    fallback when no checked mutation comes through.
    """
    for _ in range(tries):
        op = rnd.choice((widen_input, narrow_output))
        cand = op(spec, rnd)
        if cand is None:
            continue
        table = TypeTable()
        if fair_subtype(table, intern_spec(table, spec),
                        intern_spec(table, cand)).holds:
            return cand
    return unfold_root(spec)


def mutated_pair(rnd: random.Random, max_nodes: int = 5):
    """(sub, sup) specs where sup simulates sub but may diverge.

    Mutations are not checked for fairness, so the weight-oracle tests see
    diverging pairs too. They can break the plain simulation though, when
    the edited node doubles as a channel payload, so candidates are
    retried until the simulation itself holds.
    """
    for _ in range(20):
        sub = random_spec(rnd, max_nodes)
        sup = sub
        for _ in range(rnd.randint(1, 2)):
            op = rnd.choice((widen_input, narrow_output,
                             lambda s, _r: unfold_root(s)))
            cand = op(sup, rnd)
            if cand is not None:
                sup = cand
        table = TypeTable()
        if simulate(table, intern_spec(table, sub),
                    intern_spec(table, sup)).holds:
            return sub, sup
    sub = random_spec(rnd, max_nodes)
    return sub, unfold_root(sub)


# -- syntax-level program generator (for parse/render round trips) ------------

def random_type_expr(rnd: random.Random, depth: int = 2, names: tuple = ()):
    roll = rnd.random()
    if depth == 0 or roll < 0.4:
        if names and roll < 0.1:
            return TName(rnd.choice(names))
        return TEnd(rnd.choice("!?"))
    if roll < 0.85:
        labels = rnd.sample(LABELS, rnd.randint(1, 3))
        return TTags(rnd.choice("!?"),
                     [(l, random_type_expr(rnd, depth - 1, names)) for l in labels])
    return TChan(rnd.choice("!?"),
                 random_type_expr(rnd, depth - 1, names),
                 random_type_expr(rnd, depth - 1, names))


def random_proc_expr(rnd: random.Random, depth: int = 3):
    roll = rnd.random()
    if depth == 0 or roll < 0.25:
        leaf = rnd.randrange(3)
        if leaf == 0:
            return Done()
        if leaf == 1:
            return Close(rnd.choice(IDENTS))
        return Call(rnd.choice(DEFS), rnd.sample(IDENTS, rnd.randint(0, 2)))
    d = depth - 1
    kind = rnd.randrange(7)
    if kind == 0:
        return Wait(rnd.choice(IDENTS), random_proc_expr(rnd, d))
    if kind == 1:
        labels = rnd.sample(LABELS, rnd.randint(1, 3))
        return TagComm(rnd.choice(IDENTS), rnd.choice("!?"),
                       [(l, random_proc_expr(rnd, d)) for l in labels])
    if kind == 2:
        chan = rnd.choice(IDENTS)
        other = rnd.choice([v for v in IDENTS if v != chan])
        return ChanOut(chan, other, random_proc_expr(rnd, d))
    if kind == 3:
        chan = rnd.choice(IDENTS)
        var = rnd.choice([v for v in IDENTS if v != chan])
        return ChanIn(chan, var, random_type_expr(rnd, 1), random_proc_expr(rnd, d))
    if kind == 4:
        return Choice(rnd.randint(1, 2),
                      random_proc_expr(rnd, d), random_proc_expr(rnd, d))
    if kind == 5:
        return NewSession(rnd.choice(IDENTS), random_type_expr(rnd, 1),
                          random_type_expr(rnd, 1),
                          random_proc_expr(rnd, d), random_proc_expr(rnd, d))
    ann = rnd.choice([None, rnd.randint(0, 3)])
    return Cast(rnd.choice(IDENTS), random_type_expr(rnd, 1), ann,
                random_proc_expr(rnd, d))


def random_source_program(rnd: random.Random) -> SourceProgram:
    typedefs = []
    names: list[str] = []
    for i in range(rnd.randint(0, 2)):
        typedefs.append((f"T{i}", random_type_expr(rnd, 2, tuple(names)), -1))
        names.append(f"T{i}")
    procdefs = []
    for name in DEFS[: rnd.randint(1, 3)]:
        params = [(v, random_type_expr(rnd, 1, tuple(names)))
                  for v in rnd.sample(IDENTS, rnd.randint(0, 2))]
        rank = rnd.choice([None, None, None, rnd.randint(0, 4)])
        procdefs.append(ProcDef(name, params, rank, random_proc_expr(rnd, 3)))
    return SourceProgram(typedefs, procdefs)


def random_naming_program(rnd: random.Random) -> SourceProgram:
    """Typedefs that name each other in any order, through aliases, alias
    cycles and an undefined name U, and annotations that use them: the
    inputs on which name resolution succeeds or fails in many ways."""
    defined = [f"T{i}" for i in range(rnd.randint(1, 4))]
    names = tuple(defined + ["U"])
    typedefs = []
    for name in defined:
        if rnd.random() < 0.4:
            body = TName(rnd.choice(names))
        else:
            body = random_type_expr(rnd, 3, names)
        typedefs.append((name, body, -1))

    def ty():
        return random_type_expr(rnd, 2, names)

    params = [(v, ty()) for v in rnd.sample(IDENTS, rnd.randint(0, 2))]
    cast = Cast("y", ty(), None, Done())
    body = NewSession("x", ty(), ty(), Done(), ChanIn("y", "z", ty(), cast))
    return SourceProgram(typedefs, [ProcDef("P0", params, None, body)])


# -- structural programs for the rank equations --------------------------------

RANK_DEFS = ["A0", "A1", "A2"]


def random_rank_program(rnd: random.Random) -> Program:
    """A loaded Program for minRank and action-bounds tests.

    Channel names are placeholders, so the typing walk rejects most
    bodies; only the tree structure and call graph matter. The draw is
    rendered and loaded, so the whole pipeline runs on it.
    """
    def body(depth: int):
        roll = rnd.random()
        if depth == 0 or roll < 0.3:
            leaf = rnd.randrange(3)
            if leaf == 0:
                return Done()
            if leaf == 1:
                return Close("x")
            return Call(rnd.choice(RANK_DEFS), [])
        d = depth - 1
        kind = rnd.randrange(5)
        if kind == 0:
            return Wait("x", body(d))
        if kind == 1:
            labels = rnd.sample(LABELS, rnd.randint(1, 3))
            return TagComm("x", rnd.choice("!?"), [(l, body(d)) for l in labels])
        if kind == 2:
            return Choice(rnd.randint(1, 2), body(d), body(d))
        if kind == 3:
            return NewSession("y", TEnd("!"), TEnd("?"), body(d), body(d))
        return Cast("x", TEnd("!"), None, body(d))

    return load(render_program(SourceProgram([], [ProcDef(n, [], None, body(3))
                                                  for n in RANK_DEFS])))


# -- scaling families with ranks known by construction ------------------------

def call_dag_source(n: int) -> str:
    """F_i(x) = x?{a: F_{i+1}(x), b: F_{i+2}(x), c: wait x. done}.

    Calls past F_{n-1} go to a self-looping E of the same shape, and Main
    opens one session against an output loop O. Every definition but Main
    opens no session (rank 0); Main opens one (rank 1). A walk that
    unfolds each definition once per path is exponential in n here.
    """
    names = [f"F{i}" for i in range(n)] + ["E", "E"]
    lines = ["type T = ?{a: T, b: T, c: end?}",
             "type U = !{a: U, b: U, c: end!}",
             "E(x: T) = x?{a: E(x), b: E(x), c: wait x. done}",
             "O(y: U) = y!{a: O(y), b: O(y), c: close y}"]
    for i in range(n):
        lines.append(f"F{i}(x: T) = x?{{a: {names[i + 1]}(x), "
                     f"b: {names[i + 2]}(x), c: wait x. done}}")
    lines.append("Main() = new x: T / U in (F0(x) | O(x))")
    return "\n".join(lines) + "\n"


# a slot machine M against a player P that closes its link z after a win
SLOT_LINES = ["type S = ?{play: !{win: S, lose: S}, quit: end!}",
              "type R = !{play: ?{win: Q, lose: R}}",
              "type Q = !{quit: end?}",
              "M(x: S) = x?{play: x!{win: M(x), lose: M(x)}, quit: close x}",
              "P(y: R, z: end!) = y!play. y?{win: y!quit. wait y. close z, lose: P(y, z)}"]


def session_chain_source(k: int) -> str:
    """D_i(z) opens a slot game and a link to D_{i+1}; D_k(z) = close z.

    Each D_i adds two sessions to the rank of the next, so D_i has rank
    2(k-i), and Main, which opens the outer link, has rank 2k+1.
    """
    lines = list(SLOT_LINES)
    for i in range(k):
        lines.append(f"D{i}(z: end!) = new x: S / R in (M(x) | "
                     f"new y: end! / end? in (D{i + 1}(y) | wait y. P(x, z)))")
    lines.append(f"D{k}(z: end!) = close z")
    lines.append("Main() = new z: end! / end? in (D0(z) | wait z. done)")
    return "\n".join(lines) + "\n"


def rank_cycle_source(n: int) -> str:
    """C_i(x) = x?{a: C_{i+1 mod n}(x), b: wait x. D_i()}, where D_i opens
    i sessions one after the other.

    The calls C_i form one cycle with n exits of n distinct ranks: D_i has
    rank i, and every C_i has rank n - 1, the largest that leaves it.
    """
    lines = ["type T = ?{a: T, b: end?}", "D0() = done"]
    for i in range(1, n):
        lines.append(f"D{i}() = new x: end! / end? in (close x | wait x. D{i - 1}())")
    for i in range(n):
        lines.append(f"C{i}(x: T) = x?{{a: C{(i + 1) % n}(x), b: wait x. D{i}()}}")
    return "\n".join(lines) + "\n"


def swarm_source(d: int) -> str:
    """D_j(z) forks two copies of D_{j+1}; D_d(z) plays one slot game.

    A run has 2^d games live at once, each on its own session, so the
    thread count grows with d while every step touches one or two threads.
    """
    lines = list(SLOT_LINES)
    for j in range(d):
        lines.append(f"D{j}(z: end!) = new u: end! / end? in (D{j + 1}(u) | "
                     f"new v: end! / end? in (D{j + 1}(v) | wait u. wait v. close z))")
    lines.append(f"D{d}(z: end!) = new x: S / R in (M(x) | P(x, z))")
    lines.append("Main() = new z: end! / end? in (D0(z) | wait z. done)")
    return "\n".join(lines) + "\n"


# -- ill-typed programs for the interpreter -------------------------------------

RUN_DEFS = ["Main", "P0", "P1", "P2"]


def random_runnable_source(rnd: random.Random) -> str:
    """A program with a parameterless Main, to be run without the checker.

    Each `new` mostly gets two sides that follow one protocol on its
    channel, so sessions synchronise, but any side may be replaced by a
    random process. Names may be unbound (a missing handle, an unbound
    payload, a call with an unbound argument), and a side may fork a
    thread that keeps using its channel: `new` copies the whole
    environment to both of its sides, so both threads hold that handle.
    """
    params = {"Main": []}
    for name in RUN_DEFS[1:]:
        params[name] = rnd.sample(IDENTS, rnd.randint(0, 2))

    def name_in(scope: list[str]) -> str:
        return rnd.choice(scope) if scope and rnd.random() < 0.9 else rnd.choice(IDENTS)

    def other_than(chan: str) -> str:
        return rnd.choice([v for v in IDENTS if v != chan])

    def proc(depth: int, scope: list[str]):
        """Any process."""
        if depth <= 0 or rnd.random() < 0.2:
            leaf = rnd.randrange(3)
            if leaf == 0:
                return Done()
            if leaf == 1:
                return Close(name_in(scope))
            callee = rnd.choice(RUN_DEFS)
            return Call(callee, [name_in(scope) for _ in params[callee]])
        d = depth - 1
        kind = rnd.randrange(6)
        if kind == 0:
            return Wait(name_in(scope), proc(d, scope))
        if kind == 1:
            labels = rnd.sample(LABELS[:2], rnd.randint(1, 2))
            return TagComm(name_in(scope), rnd.choice("!?"),
                           [(l, proc(d, scope)) for l in labels])
        if kind == 2:
            return Choice(rnd.randint(1, 2), proc(d, scope), proc(d, scope))
        if kind == 3:
            return Cast(name_in(scope), TEnd("!"), None, proc(d, scope))
        return session(d, scope)

    def session(depth: int, scope: list[str]):
        chan = rnd.choice(IDENTS)
        left, right = sides(depth, scope + [chan], chan)
        return NewSession(chan, TEnd("!"), TEnd("?"), left, right)

    def sides(depth: int, scope: list[str], c: str):
        """Two processes that mostly follow one protocol on c."""
        d = depth - 1
        kind = rnd.randrange(8) if depth > 0 else 0
        if kind == 0:
            left, right = Close(c), Wait(c, proc(d, scope))
        elif kind == 1:
            label = rnd.choice(LABELS[:2])
            left, right = sides(d, scope, c)
            spare = rnd.choice([l for l in LABELS if l != label])
            right = TagComm(c, "?", [(label, right), (spare, proc(d, scope))])
            left = TagComm(c, "!", [(label, left)])
        elif kind == 2:
            (l1, r1), (l2, r2) = sides(d, scope, c), sides(d, scope, c)
            left = TagComm(c, "!", [("a", l1), ("b", l2)])
            right = TagComm(c, "?", [("a", r1), ("b", r2)])
        elif kind == 3:
            payload = name_in([v for v in scope if v != c]) if len(scope) > 1 else other_than(c)
            if payload == c:
                payload = other_than(c)
            var = other_than(c)
            left, right = sides(d, [v for v in scope if v != payload], c)
            left, right = ChanOut(c, payload, left), ChanIn(c, var, TEnd("!"), right)
        elif kind == 4:
            # the side forks a thread that acts on c as well
            left, right = sides(d, scope, c)
            fork = rnd.choice(IDENTS)
            rival = rnd.choice(sides(d, scope + [fork], c))
            left = NewSession(fork, TEnd("!"), TEnd("?"), left, rival)
        elif kind == 5:
            left, right = sides(d, scope, c)
            left = Choice(rnd.randint(1, 2), left, proc(d, scope))
        elif kind == 6:
            left, right = sides(d, scope, c)
            right = Cast(c, TEnd("?"), None, right)
        else:
            callee = rnd.choice(RUN_DEFS)
            left = Call(callee, [name_in(scope) for _ in params[callee]])
            right = proc(d, scope)
        if rnd.random() < 0.1:
            left, right = right, left
        return left, right

    procdefs = []
    for name in RUN_DEFS:
        body = session(5, []) if name == "Main" else proc(3, list(params[name]))
        procdefs.append(ProcDef(name, [(v, TEnd("!")) for v in params[name]], None, body))
    return render_program(SourceProgram([], procdefs))


# -- type families for the subtyping solvers -----------------------------------

def _ladder(name: str, n: int, body) -> list[str]:
    return [f"type {name}{i} = {body(i)}" for i in range(n)]


def cascade_source(n: int) -> str:
    """A_i = ?{a: A_{i+1}} and B_i = ?{a: B_{i+1}}; the last ones take a to
    end! and end?.

    The pair (end!, end?) is the only shape violation. Its removal cascades
    up to A0 ≤ B0, which is not simulated: a polarity mismatch.
    """
    lines = (_ladder("A", n, lambda i: f"?{{a: {f'A{i + 1}' if i + 1 < n else 'end!'}}}")
             + _ladder("B", n, lambda i: f"?{{a: {f'B{i + 1}' if i + 1 < n else 'end?'}}}"))
    return "\n".join(lines) + "\nMain() = done\n"


def diverging_source(n: int) -> str:
    """U_i = !{a: U_{i+1}, b: end!} and V_i = !{a: V_{i+1}}, indices mod n.

    All n pairs are simulated, and each is a strict narrowing on one loop,
    so U0 ≤ V0 diverges with n witness pairs.
    """
    lines = (_ladder("U", n, lambda i: f"!{{a: U{(i + 1) % n}, b: end!}}")
             + _ladder("V", n, lambda i: f"!{{a: V{(i + 1) % n}}}"))
    return "\n".join(lines) + "\nMain() = done\n"


def holding_source(n: int) -> str:
    """W_i = !{a: W_{i+1}, b: end!} and Z_i = !{a: Z_{i+1}}, ending in end!.

    Each of the n pairs costs one narrowing on top of the next, so
    W0 ≤ Z0 has weight n and n + 1 witness pairs.
    """
    lines = (_ladder("W", n, lambda i: f"!{{a: {f'W{i + 1}' if i + 1 < n else 'end!'}, b: end!}}")
             + _ladder("Z", n, lambda i: f"!{{a: {f'Z{i + 1}' if i + 1 < n else 'end!'}}}"))
    return "\n".join(lines) + "\nMain() = done\n"


def holding_loop_source(n: int) -> str:
    """X_i = !{a: X_{i+1}, b: end!} mod n; Y_0 = !{a: Y_1, b: end!} and
    Y_i = !{a: Y_{i+1}} for the others.

    The pairs (X_i, Y_i) form one cycle. Only (X_0, Y_0) keeps both
    labels, and it takes b for weight 1; every other pair narrows on top
    of the next, so X_i ≤ Y_i has weight n + 1 - i for i ≥ 1, and the
    cycle holds n distinct weights.
    """
    lines = (_ladder("X", n, lambda i: f"!{{a: X{(i + 1) % n}, b: end!}}")
             + _ladder("Y", n, lambda i: (f"!{{a: Y{(i + 1) % n}, b: end!}}" if i == 0
                                           else f"!{{a: Y{(i + 1) % n}}}")))
    return "\n".join(lines) + "\nMain() = done\n"


def dual_chain_source(n: int) -> str:
    """L_i = !{a: L_{i+1}, r: L0} with L_n = end!, and its dual C_i.

    From every configuration the a-steps lead to the end pair, so L0 and
    C0 are compatible with session rank n + 1. Each side picks before it
    sends, and past a few dozen states a configuration's label passes
    `RENDER_LIMIT` and prints in the equation form.
    """
    lines = (_ladder("L", n, lambda i: f"!{{a: {f'L{i + 1}' if i + 1 < n else 'end!'}, r: L0}}")
             + _ladder("C", n, lambda i: f"?{{a: {f'C{i + 1}' if i + 1 < n else 'end?'}, r: C0}}"))
    return "\n".join(lines) + "\nMain() = done\n"


def shared_ladder_source(n: int) -> str:
    """A_i = !{a: A_{i+1}, b: A_{i+1}, c: end!}, indices mod n, and a process
    that leaves its channel of type A0 unused.

    Each A_{i+1} is reached by two edges, so unfolding A0 takes 2^n copies
    of the loop; the checker reports the unused channel as E-CONTEXT-LEAK
    with A0 rendered.
    """
    lines = _ladder("A", n, lambda i: f"!{{a: A{(i + 1) % n}, b: A{(i + 1) % n}, c: end!}}")
    return "\n".join(lines) + "\nP(x: A0) = done\n"


# -- deeply nested programs, all accepted and terminating ----------------------

def _nested_sessions(n: int) -> str:
    p = "done"
    for i in reversed(range(n)):
        p = f"new x{i}: end! / end? in (close x{i} | wait x{i}. {p})"
    return f"Main() = {p}\n"


def _prefix_chain(n: int) -> str:
    t, c, p, q = "end!", "end?", "close x", "wait x. done"
    for _ in range(n):
        t, c, p, q = f"!{{a: {t}}}", f"?{{a: {c}}}", f"x!a. {p}", f"x?a. {q}"
    return f"type T = {t}\ntype C = {c}\nMain() = new x: T / C in ({p} | {q})\n"


def _branch_chain(n: int) -> str:
    t, c, p, q = "end!", "end?", "close x", "wait x. done"
    for _ in range(n):
        t, c = f"!{{a: {t}}}", f"?{{a: {c}}}"
        p, q = f"x!{{a: {p}}}", f"x?{{a: {q}}}"
    return f"type T = {t}\ntype C = {c}\nMain() = new x: T / C in ({p} | {q})\n"


def _parentheses(n: int) -> str:
    return "Main() = " + "(" * n + "done" + ")" * n + "\n"


def _choice_chain(n: int) -> str:
    return "Main() = " + " +[1] ".join(["done"] * n) + "\n"


def _channel_type(n: int) -> str:
    t = "end!"
    for _ in range(n):
        t = f"!(end!).{t}"
    return f"type T = {t}\nMain() = done\n"


def _cast_chain(n: int) -> str:
    return ("P(x: end!) = " + "[x: end!] " * n + "close x\n"
            "Main() = new x: end! / end? in (P(x) | wait x. done)\n")


# name -> source of size n; every one is accepted and terminates
NESTED_SOURCES = {
    "sessions": _nested_sessions, "prefixes": _prefix_chain,
    "branches": _branch_chain, "parentheses": _parentheses,
    "choices": _choice_chain, "channel-types": _channel_type,
    "casts": _cast_chain,
}


def deepest_admitted(source) -> int:
    """The largest n whose source(n) the parser admits, by bisection."""
    lo, hi = 1, 2 * MAX_NESTING
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse(source(mid))
            lo = mid
        except SourceError:
            hi = mid - 1
    return lo
