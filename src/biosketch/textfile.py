"""The line grammar of the stored text files: records and keys.

A file is a header line, then ``name=value`` field lines, then body lines.
Surrounding whitespace is stripped from every line and blank lines are
skipped; the field lines are the lines with ``=`` up to the first line
without one, and the rest is the body. Fields may come in any order; each
appears once, and an unknown or a missing field is refused. The header
string is the format's version check.

``to_text`` writes a file and ``from_text`` reads one back; each format is a
header, a table of field casts and one call of each. ``parse_plain_int`` and
``parse_plain_hex`` read values exactly as the writers print them.
"""

import re

from .errors import ParseError

# Integers as the writers print them: ASCII decimals without a plus sign or
# leading zero.
_PLAIN_INT = re.compile(r"-?(?:0|[1-9][0-9]*)")


def parse_plain_int(text: str) -> int:
    """An int value as the file writers print it; ``ValueError`` for any
    other form ``int`` takes, such as ``+3``, ``0_1`` or ``04``."""
    if not _PLAIN_INT.fullmatch(text):
        raise ValueError(f"{text!r} is not a plain decimal")
    return int(text)


def parse_plain_hex(text: str) -> bytes:
    """Bytes as ``bytes.hex`` writes them; ``ValueError`` for the other forms
    ``bytes.fromhex`` takes, such as upper case or spaces."""
    value = bytes.fromhex(text)
    if value.hex() != text:
        raise ValueError(f"{text!r} is not plain lower-case hex")
    return value


def to_text(header: str, fields, body=()) -> str:
    """``header``, one ``name=value`` line per item of the ``fields``
    mapping, then the ``body`` lines, each ended by a newline.

    A field whose line ``from_text`` would not read back as written, such as
    a value with a line break or surrounding whitespace, is a
    ``ValueError``. Body lines are not checked: the writers format them
    from ints.
    """
    lines = [f"{name}={value}" for name, value in fields.items()]
    for line in lines:
        if line.splitlines() != [line.strip()]:
            raise ValueError(f"field line {line!r} would not read back as written")
    return "\n".join([header, *lines, *body, ""])


def from_text(text: str, header: str, casts, what: str, optional=()):
    """``(fields, body_lines)`` of a file in the grammar above.

    ``casts`` maps every field name to the callable that reads its value;
    each name not in ``optional`` must be present. ``fields`` maps each
    present name to its cast value, and ``body_lines`` are the stripped,
    non-blank lines after the fields. A wrong header, a repeated, unknown or
    missing field, and a value its cast refuses are each a
    ``ParseError("malformed {what}: ...")``.
    """
    lines = list(filter(None, map(str.strip, text.splitlines())))
    end = next((i for i in range(1, len(lines)) if "=" not in lines[i]), len(lines))
    values = {}
    try:
        if lines[:1] != [header]:
            raise ValueError(f"the first line is not {header!r}")
        for name, value in (line.split("=", 1) for line in lines[1:end]):
            if name in values:
                raise ValueError(f"repeated field {name!r}")
            values[name] = value
        if unknown := values.keys() - casts.keys():
            raise ValueError(f"unknown fields {sorted(unknown)}")
        if missing := casts.keys() - values.keys() - set(optional):
            raise ValueError(f"missing fields {sorted(missing)}")
        return {name: casts[name](value) for name, value in values.items()}, lines[end:]
    except ValueError as exc:
        raise ParseError(f"malformed {what}: {exc}") from exc
