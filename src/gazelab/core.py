"""Domain model and wire formats for densely annotated film clips.

An annotation campaign produces, per annotator and film, freely
delimited timeline spans rated with one of four ordered levels:

* ``EN`` (easy negative): nothing suggestive on screen; no concept may
  be attached. Also the default for watched but unselected time.
* ``HN`` (hard negative): concept elements present without producing
  the overall effect.
* ``NS`` (not sure): borderline.
* ``S`` (sure): concept elements present and producing the effect.

Positive levels carry one or more of eight visual concepts (type of
shot, look, body, posture, clothing, appearance, expression of emotion,
activity). Downstream stages project spans onto fixed clip
delimitations and consume per-clip embedding vectors.

Three file formats are owned here, all bit-exact:

* annotation JSONL, one span per line with keys ``film``, ``annotator``,
  ``start``, ``end``, ``level``, ``concepts``;
* clip index CSV, ``clip_id,film_id,start_s,end_s`` without a header;
* embedding tables, either binary (magic ``OBYEMB01``, little-endian
  u32 dimension, then ``[u16 id length, UTF-8 id, dim float32]``
  records) or a CSV fallback ``clip_id,v0,...,v{dim-1}``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

import numpy as np

from .errors import InvariantViolation, MalformedRecord, ParseError, PreconditionError

EMBEDDING_MAGIC = b"OBYEMB01"


class ObjLevel(IntEnum):
    """Objectification level, totally ordered EN < HN < NS < S.

    The integer value is the rank used by max-merging; the member name
    is the wire spelling.
    """

    EN = 0
    HN = 1
    NS = 2
    S = 3

    @classmethod
    def from_name(cls, name: str) -> "ObjLevel":
        try:
            return cls[name]
        except KeyError:
            raise InvariantViolation(f"unknown level {name!r}") from None


class Concept(IntEnum):
    """One of the eight visual concepts, in canonical index order.

    The canonical order fixes one-hot layouts and the axis order of the
    concept subspace everywhere in the package.
    """

    TYPE_OF_SHOT = 0
    LOOK = 1
    BODY = 2
    POSTURE = 3
    CLOTHING = 4
    APPEARANCE = 5
    EXPRESSION_OF_EMOTION = 6
    ACTIVITY = 7

    @property
    def label(self) -> str:
        return _CONCEPT_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Concept":
        try:
            return _CONCEPTS_BY_LABEL[label]
        except KeyError:
            raise InvariantViolation(f"unknown concept {label!r}") from None


_CONCEPT_LABELS = {
    Concept.TYPE_OF_SHOT: "TypeOfShot",
    Concept.LOOK: "Look",
    Concept.BODY: "Body",
    Concept.POSTURE: "Posture",
    Concept.CLOTHING: "Clothing",
    Concept.APPEARANCE: "Appearance",
    Concept.EXPRESSION_OF_EMOTION: "ExpressionOfEmotion",
    Concept.ACTIVITY: "Activity",
}
_CONCEPTS_BY_LABEL = {label: c for c, label in _CONCEPT_LABELS.items()}

#: All concepts in canonical order.
CONCEPTS: tuple[Concept, ...] = tuple(Concept)


def _check_level_concepts(level: ObjLevel, concepts: frozenset[Concept]) -> None:
    if level is ObjLevel.EN and concepts:
        raise InvariantViolation("no concept can be attached to an EN rating")
    if level is not ObjLevel.EN and not concepts:
        raise InvariantViolation(f"{level.name} rating requires at least one concept")


@dataclass(frozen=True)
class SpanAnnotation:
    """One freely delimited timeline span rated by one annotator."""

    film_id: str
    annotator_id: str
    start: float
    end: float
    level: ObjLevel
    concepts: frozenset[Concept]

    def __post_init__(self):
        object.__setattr__(self, "concepts", frozenset(self.concepts))
        if self.start < 0:
            raise InvariantViolation(f"negative start {self.start}")
        if not self.start < self.end < math.inf:
            raise InvariantViolation(
                f"empty, inverted or non-finite span [{self.start}, {self.end})"
            )
        _check_level_concepts(self.level, self.concepts)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ClipDelimitation:
    """A fixed clip boundary within a film."""

    clip_id: str
    film_id: str
    start: float
    end: float

    def __post_init__(self):
        if not -math.inf < self.start < self.end < math.inf:
            raise InvariantViolation(
                f"clip {self.clip_id!r}: empty, inverted or non-finite range"
                f" [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class ClipLabel:
    """A clip-aligned rating with aggregated concepts and provenance."""

    clip_id: str
    level: ObjLevel
    concepts: frozenset[Concept]
    annotators: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "concepts", frozenset(self.concepts))
        object.__setattr__(self, "annotators", frozenset(self.annotators))
        _check_level_concepts(self.level, self.concepts)


class EmbeddingTable(Mapping[str, np.ndarray]):
    """Per-clip embedding vectors of one fixed dimension.

    The vectors live in one read-only float32 ``(n, dim)`` matrix, the
    width of the binary format, so binary and CSV round trips are both
    exact; an id-to-row index maps each clip id to its row. Tables are
    immutable after construction and safe to share across workers.
    """

    def __init__(self, rows: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]]):
        items = rows.items() if isinstance(rows, Mapping) else rows
        index: dict[str, int] = {}
        vectors: list[np.ndarray] = []
        for clip_id, vec in items:
            if clip_id in index:
                raise InvariantViolation(f"duplicate clip id {clip_id!r}")
            arr = np.asarray(vec, dtype=np.float32).reshape(-1)
            if not vectors:
                if arr.size == 0:
                    raise InvariantViolation(f"clip {clip_id!r}: empty vector")
            elif arr.size != vectors[0].size:
                raise InvariantViolation(
                    f"clip {clip_id!r}: expected {vectors[0].size} components, got {arr.size}"
                )
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise InvariantViolation(
                    f"clip {clip_id!r}: non-finite component at index {bad[0]}"
                )
            index[clip_id] = len(vectors)
            vectors.append(arr)
        if not vectors:
            raise InvariantViolation("embedding table has no rows")
        self._matrix = np.stack(vectors)
        self._matrix.flags.writeable = False
        self._index = index

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def clip_ids(self) -> tuple[str, ...]:
        return tuple(self._index)

    def matrix(self, clip_ids: Iterable[str]) -> np.ndarray:
        """Gather the vectors of ``clip_ids`` into one (n, dim) array."""
        try:
            rows = [self._index[cid] for cid in clip_ids]
        except KeyError as e:
            raise PreconditionError(f"no embedding for clip {e.args[0]!r}") from None
        return self._matrix[rows]

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, clip_id: str) -> np.ndarray:
        return self._matrix[self._index[clip_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingTable):
            return NotImplemented
        if self.dim != other.dim or self._index.keys() != other._index.keys():
            return False
        return all(np.array_equal(self[k], other[k]) for k in self._index)


# --- text records --------------------------------------------------------


def jsonl_rows(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of every non-blank line of JSONL text.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, so a character such as
    U+2028 or U+0085 stays inside the JSON string that holds it.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return ((lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip())


def csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, cells)`` of every non-blank CSV row, numbered by
    the line the row ends on (a quoted cell may span lines). A row the
    csv module cannot read is a MalformedRecord at its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):
                yield reader.line_num, row
    except csv.Error as e:  # a cell over the field size limit, say
        raise MalformedRecord(f"unreadable CSV ({e})", line=reader.line_num) from None


def read_rows(rows: Iterable[tuple[int, Any]], parse: Callable[[Any], Any]) -> list:
    """``parse(row)`` of every ``(line number, row)``, in order, leaving out None.

    The one place an input's line numbers are added: a MalformedRecord or
    InvariantViolation from ``parse`` is raised again with the row's line.
    """
    records = []
    for lineno, row in rows:
        try:
            record = parse(row)
        except (MalformedRecord, InvariantViolation) as e:
            raise type(e)(e.reason, line=lineno) from None
        if record is not None:
            records.append(record)
    return records


def json_object(line: str) -> dict:
    """The JSON object on one JSONL line; MalformedRecord for anything else."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise MalformedRecord(f"invalid JSON ({e.msg})") from None
    except RecursionError:
        raise MalformedRecord("invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object")
    return obj


_KIND_NAMES = {str: "a string", float: "a number", list: "an array of strings"}


def field(obj: dict, key: str, kind: type, default: Any = None) -> Any:
    """``obj[key]`` checked to be of ``kind``; ``default``, if given, for a missing key.

    ``str`` is a string, ``list`` an array of strings, and ``float`` a
    JSON number returned as a float: not true or false (which Python
    counts as ints), nor an integer beyond the float range. A wrong kind,
    or a missing key without a default, is a MalformedRecord.
    """
    if key not in obj:
        if default is None:
            raise MalformedRecord(f"missing field {key!r}")
        return default
    value = obj[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    elif isinstance(value, kind) and (kind is str or all(isinstance(v, str) for v in value)):
        return value
    raise MalformedRecord(f"field {key!r} must be {_KIND_NAMES[kind]}")


def parse_annotations(text: str) -> list[SpanAnnotation]:
    """Parse annotation JSONL into spans, preserving line order.

    Raises MalformedRecord for lines that are not well-formed records
    and InvariantViolation (tagged with the line number) for records
    that break the domain rules.
    """

    def span(line: str) -> SpanAnnotation:
        obj = json_object(line)
        film, annotator = field(obj, "film", str), field(obj, "annotator", str)
        start, end = field(obj, "start", float), field(obj, "end", float)
        level, concepts = field(obj, "level", str), field(obj, "concepts", list)
        concepts = frozenset(Concept.from_label(c) for c in concepts)
        return SpanAnnotation(film, annotator, start, end, ObjLevel.from_name(level), concepts)

    return read_rows(jsonl_rows(text), span)


# --- clip index CSV ------------------------------------------------------


def parse_clip_index(text: str) -> list[ClipDelimitation]:
    """Parse a headerless ``clip_id,film_id,start_s,end_s`` CSV.

    Returns clips grouped by film and sorted by start within each film.
    A clip id names one clip in the whole index, since embeddings,
    labels and folds are keyed by it alone, so a repeated id is
    rejected, in any film; overlapping clips within a film are too.
    """
    seen: set[str] = set()

    def delimitation(row: list[str]) -> ClipDelimitation:
        if len(row) != 4:
            raise MalformedRecord(f"expected 4 columns, got {len(row)}")
        clip_id, film_id, start_s, end_s = (c.strip() for c in row)
        try:
            start, end = float(start_s), float(end_s)
        except ValueError:
            raise MalformedRecord("start and end must be numbers") from None
        if clip_id in seen:
            raise InvariantViolation(f"duplicate clip id {clip_id!r}")
        seen.add(clip_id)
        return ClipDelimitation(clip_id, film_id, start, end)

    clips = read_rows(csv_rows(text), delimitation)

    by_film: dict[str, list[ClipDelimitation]] = {}
    for clip in clips:
        by_film.setdefault(clip.film_id, []).append(clip)
    ordered: list[ClipDelimitation] = []
    for film_id in sorted(by_film):
        film_clips = sorted(by_film[film_id], key=lambda c: (c.start, c.clip_id))
        for prev, cur in zip(film_clips, film_clips[1:]):
            if cur.start < prev.end:
                raise InvariantViolation(
                    f"clips {prev.clip_id!r} and {cur.clip_id!r} overlap in film {film_id!r}"
                )
        ordered.extend(film_clips)
    return ordered


# --- embedding tables ----------------------------------------------------


def load_embeddings(data: bytes) -> EmbeddingTable:
    """Load an embedding table from either wire encoding.

    Payloads starting with the 8-byte magic are decoded as binary;
    anything else must be UTF-8 CSV text.
    """
    if data[:8] == EMBEDDING_MAGIC:
        return _load_embeddings_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError("payload is neither magic-prefixed binary nor UTF-8 CSV") from None
    return _load_embeddings_csv(text)


def _load_embeddings_binary(data: bytes) -> EmbeddingTable:
    if len(data) < 12:
        raise MalformedRecord("header: binary payload truncated")
    (dim,) = struct.unpack_from("<I", data, 8)
    if dim == 0:
        raise MalformedRecord("header: dimension must be positive")
    offset = 12
    rows: list[tuple[str, np.ndarray]] = []
    record = 0
    while offset < len(data):
        record += 1
        if offset + 2 > len(data):
            raise MalformedRecord(f"record {record}: truncated id length")
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if offset + id_len > len(data):
            raise MalformedRecord(f"record {record}: truncated clip id")
        try:
            clip_id = data[offset : offset + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedRecord(f"record {record}: clip id is not valid UTF-8") from None
        offset += id_len
        vec_bytes = 4 * dim
        if offset + vec_bytes > len(data):
            raise MalformedRecord(f"record {record}: truncated vector")
        vec = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
        offset += vec_bytes
        rows.append((clip_id, vec))
    return EmbeddingTable(rows)


def _load_embeddings_csv(text: str) -> EmbeddingTable:
    def vector(row: list[str]) -> tuple[str, list[float]]:
        if len(row) < 2:
            raise MalformedRecord("expected clip_id followed by components")
        try:
            return row[0], [float(v) for v in row[1:]]
        except ValueError:
            raise MalformedRecord("non-numeric component") from None

    return EmbeddingTable(read_rows(csv_rows(text), vector))


def dump_embeddings(table: EmbeddingTable, encoding: str = "binary") -> bytes:
    """Serialize a table; ``encoding`` is ``"binary"`` or ``"csv"``."""
    if encoding == "binary":
        parts = [EMBEDDING_MAGIC, struct.pack("<I", table.dim)]
        for clip_id in table.clip_ids():
            idb = clip_id.encode("utf-8")
            if len(idb) > 0xFFFF:
                raise InvariantViolation(f"clip id too long for binary encoding: {clip_id!r}")
            parts.append(struct.pack("<H", len(idb)))
            parts.append(idb)
            parts.append(table[clip_id].astype("<f4").tobytes())
        return b"".join(parts)
    if encoding == "csv":
        lines = []
        for clip_id in table.clip_ids():
            if "," in clip_id or "\n" in clip_id or '"' in clip_id:
                raise InvariantViolation(
                    f"clip id {clip_id!r} needs quoting; use the binary encoding"
                )
            comps = ",".join(repr(float(v)) for v in table[clip_id])
            lines.append(f"{clip_id},{comps}")
        return ("".join(line + "\n" for line in lines)).encode("utf-8")
    raise ValueError(f"unknown encoding {encoding!r}")
