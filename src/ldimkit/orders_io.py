"""Reading and writing orders files.

An orders file holds one partial linear extension per line as decimal
element ids.  Parsing is tolerant: any run of whitespace separates tokens,
blank lines are skipped, and a ``#`` starts a comment.  Each token is read
as ``int()`` reads it, by the reader that also reads DIMACS bodies and
solver models (``intparse.parse_ints``), and each line goes straight into
a member's int64 id array of a ``RealizerFamily``; ``parse_orders_text``
and ``read_orders_file`` give that family's tuple view.  Emission is
canonical: single spaces, one member per line, trailing newline, so that
emitted bytes are stable under reparse.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError
from .intparse import _INT64, parse_ints
from .realizers import RealizerFamily


def parse_orders_family(text: str) -> RealizerFamily:
    """Parse orders-file text into a family of int64 id arrays."""
    members = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line or line.isspace():
            continue
        ids = parse_ints(line, lambda token: FormatError(
            f"line {lineno}: expected whitespace-separated integers, "
            f"got {raw!r}"))
        if ids.min() == _INT64.min or ids.max() == _INT64.max:
            # an id at an int64 limit may stand for one beyond it: read
            # the line exactly, so that the range check names that id
            ids = [int(token) for token in line.split()]
        members.append(ids)
    return RealizerFamily(members)


def parse_orders_text(text: str) -> list[tuple[int, ...]]:
    """Parse orders-file text into a list of id tuples."""
    return list(parse_orders_family(text))


def emit_orders_text(ples: Iterable[Sequence[int]]) -> str:
    """Render members in canonical single-space form.  When the ids of an
    int64 family span no more values than it has placements, each is
    looked up in a table of id strings."""
    members = RealizerFamily(ples).arrays
    placed = [ids for ids in members if ids.size]
    if placed and all(ids.dtype == np.int64 for ids in placed):
        low = min(int(ids.min()) for ids in placed)
        high = max(int(ids.max()) for ids in placed)
        if high - low < sum(ids.size for ids in placed):
            table = np.array([str(a) for a in range(low, high + 1)],
                             dtype=object)
            return "".join(" ".join(table[ids - low].tolist()) + "\n"
                           for ids in members)
    return "".join(" ".join(map(str, ids.tolist())) + "\n"
                   for ids in members)


def read_orders_family(path) -> RealizerFamily:
    return parse_orders_family(Path(path).read_text(encoding="utf-8"))


def read_orders_file(path) -> list[tuple[int, ...]]:
    return parse_orders_text(Path(path).read_text(encoding="utf-8"))


def write_orders_file(path, ples: Iterable[Sequence[int]]) -> None:
    Path(path).write_text(emit_orders_text(ples), encoding="utf-8")
