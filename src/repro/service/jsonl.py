"""Line-atomic JSONL writing and strict crash-tolerant reading.

The batch runner streams results as JSONL.  A naive ``write(json +
"\\n")`` over a buffered stream can die mid-record, leaving a truncated
partial line that poisons every downstream consumer — and, worse, the
truncation is silent: the file still parses line-by-line until the
tail.  The discipline here:

* :func:`write_line` emits each record as **one** ``write`` call of the
  complete line and flushes immediately — a crash between records
  loses nothing, and a crash mid-record leaves *at most one* trailing
  partial line;
* :func:`read_jsonl` parses strictly — any malformed line is an error —
  **except** for exactly one trailing partial line, which is the
  recognizable signature of a crash mid-write and is reported, not
  raised.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["JSONLError", "read_jsonl", "write_line"]


class JSONLError(ValueError):
    """A structurally corrupt JSONL document (not a mere truncation).

    Carries the diagnostic context the bare ``JSONDecodeError`` lacked:
    ``source`` (the file path, or ``"<stream>"`` for open handles) and
    ``line`` (1-based).  A mid-file partial line is the signature of
    real corruption — e.g. a quarantine-path copy truncating a sidecar
    — and the message must say *which file and line* so the operator
    can find it without bisecting by hand.
    """

    def __init__(self, source: str, line: int, text: str) -> None:
        self.source = str(source)
        self.line = int(line)
        super().__init__(
            f"malformed JSONL in {self.source} at line {self.line}: "
            f"{text[:80]!r}")


def write_line(out, record: dict | str) -> None:
    """Write one JSONL record line-atomically: single write, then flush.

    ``record`` is a dict, or the JSON text a renderer already produced
    for it (no trailing newline).  The record is serialized fully
    before anything touches ``out``, so a serialization error never
    emits a half-line; the flush bounds the crash window to the one
    in-flight line.
    """
    line = (record if isinstance(record, str) else json.dumps(record)) \
        + "\n"
    out.write(line)
    flush = getattr(out, "flush", None)
    if flush is not None:
        flush()


def read_jsonl(source, allow_partial_tail: bool = True) -> list:
    """Parse JSONL strictly; tolerate exactly one trailing partial line.

    ``source`` is a path or an open text stream.  A malformed line
    anywhere but the very end raises :class:`JSONLError` naming the
    source and line (the file is corrupt, not merely truncated).  A
    malformed *final* non-blank line — the signature of a crash
    mid-:func:`write_line`, possibly followed by blank separators — is
    dropped and the complete records are returned; pass
    ``allow_partial_tail=False`` to treat even that as an error.
    """
    if hasattr(source, "read"):
        text = source.read()
        name = getattr(source, "name", None) or "<stream>"
    else:
        name = str(source)
        text = Path(source).read_text()
    lines = text.splitlines()
    last_content = max(
        (number for number, line in enumerate(lines, start=1)
         if line.strip()), default=0)
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue  # blank separators are harmless, skip them
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if number == last_content and allow_partial_tail:
                break  # the one permitted crash artifact
            raise JSONLError(name, number, line) from exc
    return records
