"""fairchk: a checker and interpreter for fair-termination session types.

Programs are binary-session processes; the checker guarantees that every
accepted program terminates under any fair scheduler, combining exact
linear typing, explicit fair-subtyping casts, and three boundedness
checks (actions, sessions, cast weight).
"""

from .semantics import compatible, session_rank
from .subtyping import fair_subtype, unfair_subtype
from .surface import Program, SourceError, load, parse, render_program, resolve
from .typecheck import check_program
from .runtime import RunOutcome, run
from .types import INF, TypeTable, dual, equiv, is_bounded

__version__ = "0.1.0"

__all__ = [
    "INF",
    "Program",
    "RunOutcome",
    "SourceError",
    "TypeTable",
    "check_program",
    "compatible",
    "dual",
    "equiv",
    "fair_subtype",
    "is_bounded",
    "load",
    "parse",
    "render_program",
    "resolve",
    "run",
    "session_rank",
    "unfair_subtype",
]
