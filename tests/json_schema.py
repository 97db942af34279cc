"""Schemas for every JSON surface the CLI exposes, and a validator for
the subset of JSON Schema they use: type, enum, anyOf, required,
properties, items, additionalProperties.

`validate` raises ValueError with a path into the offending value, so a
schema break points at the exact field.
"""

from fairchk import runtime

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


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def validate(value, schema: dict, path: str = "$") -> None:
    """Raise ValueError at the first point where value breaks the schema."""
    if "anyOf" in schema:
        for alt in schema["anyOf"]:
            try:
                validate(value, alt, path)
                return
            except ValueError:
                continue
        raise ValueError(f"{path}: no alternative matches {value!r}")
    if "enum" in schema:
        if value not in schema["enum"]:
            raise ValueError(f"{path}: {value!r} not one of {schema['enum']}")
        return
    want = schema.get("type")
    if want is not None:
        py = _TYPES[want]
        if isinstance(value, bool) and want in ("integer", "number"):
            raise ValueError(f"{path}: expected {want}, got bool")
        if not isinstance(value, py):
            raise ValueError(f"{path}: expected {want}, got {type(value).__name__}")
    if want == "object":
        for key in schema.get("required", []):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], f"{path}.{key}")
            elif schema.get("additionalProperties", True) is False:
                raise ValueError(f"{path}: unexpected key {key!r}")
    elif want == "array":
        items = schema.get("items")
        if items is not None:
            for idx, sub in enumerate(value):
                validate(sub, items, f"{path}[{idx}]")
