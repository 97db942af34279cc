"""Schemas for every JSON surface the CLI exposes.

They use a subset of JSON Schema: type, enum, anyOf, required,
properties, items, additionalProperties.
"""

from __future__ import annotations

from . import runtime

WEIGHT = {"anyOf": [{"type": "integer"}, {"enum": ["inf"]}]}

SPAN = {
    "type": "object",
    "required": ["line", "col"],
    "properties": {"line": {"type": "integer"}, "col": {"type": "integer"}},
    "additionalProperties": False,
}

DIAGNOSTIC = {
    "type": "object",
    "required": ["code", "span", "message", "details"],
    "properties": {
        "code": {"type": "string"},
        "span": SPAN,
        "message": {"type": "string"},
        "details": {"type": "object"},
    },
    "additionalProperties": False,
}

DEFINITION = {
    "type": "object",
    "required": ["name", "rank", "status", "diagnostics"],
    "properties": {
        "name": {"type": "string"},
        "rank": WEIGHT,
        "status": {"enum": ["accepted", "rejected"]},
        "diagnostics": {"type": "array", "items": DIAGNOSTIC},
    },
    "additionalProperties": False,
}

TIMINGS = ["loadMs", "checkMs", "typingMs", "safetyMs", "ranksMs", "boundsMs", "inferMs"]

CHECK = {
    "type": "object",
    # timings appears only on CLI output; the API report omits it so that
    # identical sources produce byte-identical reports
    "required": ["verdict", "definitions"],
    "properties": {
        "verdict": {"enum": ["accepted", "rejected"]},
        "definitions": {"type": "array", "items": DEFINITION},
        # milliseconds: reading and parsing the file, all the checker's
        # passes together, then each pass
        "timings": {
            "type": "object",
            "required": TIMINGS,
            "properties": {key: {"type": "number"} for key in TIMINGS},
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

SUBTYPE = {
    "type": "object",
    "required": ["holds", "weight", "simulationSize"],
    "properties": {
        "holds": {"type": "boolean"},
        "weight": WEIGHT,
        "simulationSize": {"type": "integer"},
        "offendingPair": {"type": "array", "items": {"type": "string"}},
        "failure": {"enum": ["not-simulated", "diverges"]},
        "detail": {"type": "string"},
    },
    "additionalProperties": False,
}

COMPATIBLE = {
    "type": "object",
    "required": ["compatible"],
    "properties": {"compatible": {"type": "boolean"}},
    "additionalProperties": False,
}

RANK = {
    "type": "object",
    "required": ["rank"],
    "properties": {"rank": WEIGHT},
    "additionalProperties": False,
}

RUN_STATS = {
    "type": "object",
    "required": ["rules", "peakThreads", "sessionsOpened"],
    "properties": {
        # how often each rule fired, every rule listed
        "rules": {
            "type": "object",
            "required": sorted(runtime.RULES),
            "properties": {rule: {"type": "integer"} for rule in runtime.RULES},
            "additionalProperties": False,
        },
        "peakThreads": {"type": "integer"},
        "sessionsOpened": {"type": "integer"},
    },
    "additionalProperties": False,
}

RUN = {
    "type": "object",
    "required": ["outcome", "steps", "seed"],
    "properties": {
        "outcome": {"enum": ["terminated", "step-limit", "stuck"]},
        "steps": {"type": "integer"},
        "seed": {"type": "integer"},
        # only with --stats
        "stats": RUN_STATS,
    },
    "additionalProperties": False,
}

TRACE_ENTRY = {
    "type": "object",
    "required": ["step", "rule", "session", "detail"],
    "properties": {
        "step": {"type": "integer"},
        "rule": {"enum": sorted(runtime.RULES)},
        "session": {"type": "string"},
        "detail": {"type": "string"},
    },
    "additionalProperties": False,
}
