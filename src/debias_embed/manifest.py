"""Run manifests: what produced an output, from which inputs.

Every CLI invocation writes ``<output>.manifest.json`` recording the
command line, the effective configuration, seeds, sha256 fingerprints
of all inputs and outputs (null for an input that is not a regular
file), collected warnings, and the tool version.
The wall-clock timestamp is isolated in the single ``created_at`` key
so that otherwise-identical runs produce manifests differing in exactly
that one field.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["RunManifest", "file_fingerprint", "write_json", "capture_warnings"]


def file_fingerprint(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON: one-space indent, sorted keys, LF line ends, final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass
class RunManifest:
    command: list[str]
    config: dict
    seeds: dict
    inputs: dict  # path -> sha256, or None
    outputs: dict = field(default_factory=dict)  # path -> sha256
    warnings: list[str] = field(default_factory=list)
    tool_version: str = ""
    created_at: str = ""

    def add_output(self, path) -> None:
        self.outputs[str(path)] = file_fingerprint(path)

    def write(self, path) -> None:
        if not self.tool_version:
            from . import __version__

            self.tool_version = __version__
        self.created_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        write_json(path, {
            "command": list(self.command),
            "config": self.config,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "warnings": list(self.warnings),
            "tool_version": self.tool_version,
            "created_at": self.created_at,
        })


class _Collector(logging.Handler):
    def __init__(self, sink):
        super().__init__(level=logging.WARNING)
        self.sink = sink

    def emit(self, record):
        self.sink.append(record.getMessage())


@contextmanager
def capture_warnings():
    """Collect the package's warning-level log messages into a list."""
    sink: list[str] = []
    handler = _Collector(sink)
    logger = logging.getLogger("debias_embed")
    logger.addHandler(handler)
    try:
        yield sink
    finally:
        logger.removeHandler(handler)
