"""How every file convoylog reads is opened, decoded and shape-checked.

Proximity logs, trajectories and ground truth are JSONL, scenarios are one
JSON document, and rule files are text. Whichever reader meets a malformed
file, it fails as a LogFormatError, numbered with the line for JSONL. JSONL
paths are read as bytes and decoded as UTF-8 one line at a time, so a bad
byte is reported on its own line. A reader checks shape only (get, require)
and hands each value to the constructor that checks it; the proximity log's
decoder alone checks types itself, on its measured fast path.

Every reader decodes JSON through loads. A stripped JSONL line goes to the
C scanner (json.JSONDecoder.raw_decode) alone, without json.loads' checks
around it; only a line that fails there, or holds more than one value, is
decoded again by json.loads to name the fault. On the benchmark's seed-1
crowd lines that took loads from 3.1 to 2.3 us a line (median of 15
alternating in-process pairs, 2-core Xeon VM, Python 3.11.7).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Mapping
from contextlib import nullcontext
from pathlib import Path
from typing import IO, Any, ContextManager

from .errors import ConvoylogError, LogFormatError


def opened(file: str | Path | IO, mode: str) -> ContextManager[IO]:
    """A path opened in mode (UTF-8 when text); an open handle, left open."""
    if isinstance(file, (str, Path)):
        return open(file, mode, encoding=None if "b" in mode else "utf-8")
    return nullcontext(file)


def read_text(source: str | Path | IO[str]) -> str:
    """The whole of a UTF-8 text file or an open text handle."""
    with opened(source, "r") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"not UTF-8 text: {exc.reason}") from None


_raw_decode = json.JSONDecoder().raw_decode


def loads(data: str | bytes) -> Any:
    """json.loads, raising LogFormatError for any malformed text.

    A str that is one JSON value and nothing else is decoded by the C
    scanner alone. Anything else (bytes, surrounding whitespace, a BOM,
    extra data, too many digits, too deep a nesting) takes json.loads, so
    it gives the value or the error that json.loads gives.
    """
    if type(data) is str:
        try:
            value, end = _raw_decode(data)
        except (ValueError, RecursionError):
            pass
        else:
            if end == len(data):
                return value
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:  # bytes from a binary handle
        raise LogFormatError(f"not UTF-8 text: {exc.reason}") from None
    except ValueError:  # an integer literal beyond the interpreter's digit limit
        raise LogFormatError("number has too many digits") from None
    except RecursionError:
        raise LogFormatError("JSON nested too deeply") from None


def read_jsonl(source: str | Path | IO, decode: Callable[[Any], object]) -> None:
    """Pass the JSON value of each non-blank line to decode, in file order. A
    ConvoylogError or ValueError on a line becomes a line-numbered LogFormatError."""
    with opened(source, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                if isinstance(line, bytes):  # a path: decode each line on its own
                    line = line.decode("utf-8")
                line = line.strip()
                if line:
                    decode(loads(line))
            except (ConvoylogError, ValueError) as exc:
                raise LogFormatError(str(exc), line=lineno) from None


def write_jsonl(dest: str | Path | IO[str], records: Iterable[Mapping]) -> None:
    with opened(dest, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def get(obj: Mapping, key: str, where: str):
    """obj[key]; LogFormatError unless obj is a JSON object that has key."""
    try:
        return obj[key]
    except KeyError:
        raise LogFormatError(f"{where}: missing field {key!r}") from None
    except TypeError:  # obj is some other JSON value
        raise LogFormatError(f"{where} must be a JSON object") from None


def require(obj: Mapping, key: str, kinds, where: str):
    """get(obj, key, where), which must be an instance of kinds and not a bool."""
    value = get(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise LogFormatError(f"{where}: field {key!r} has wrong type")
    return value
