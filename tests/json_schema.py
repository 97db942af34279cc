"""A validator for the subset of JSON Schema that `fairchk.schema` uses:
type, enum, anyOf, required, properties, items, additionalProperties.

`validate` raises ValueError with a path into the offending value, so a
schema break points at the exact field.
"""

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
