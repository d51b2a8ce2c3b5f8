"""Domain model, parsing, and serialization round trips."""

import json

import numpy as np
import pytest

from gazelab import (
    CONCEPTS,
    ClipLabel,
    Concept,
    ConceptVector,
    EmbeddingTable,
    NegativeMode,
    ObjLevel,
    SpanAnnotation,
    dump_embeddings,
    load_embeddings,
    parse_annotations,
    parse_clip_index,
)
from gazelab.core import json_object
from gazelab.errors import InvariantViolation, MalformedRecord, ParseError
from synthfix import serialize_annotations, serialize_clip_index


class TestLevelsAndConcepts:
    def test_total_order(self):
        assert ObjLevel.EN < ObjLevel.HN < ObjLevel.NS < ObjLevel.S
        assert len(ObjLevel) == 4

    def test_max_is_commutative_and_associative(self):
        levels = list(ObjLevel)
        for a in levels:
            for b in levels:
                assert max(a, b) == max(b, a)
                for c in levels:
                    assert max(max(a, b), c) == max(a, max(b, c))

    def test_concept_wire_spellings(self):
        assert [c.label for c in Concept] == [
            "TypeOfShot",
            "Look",
            "Body",
            "Posture",
            "Clothing",
            "Appearance",
            "ExpressionOfEmotion",
            "Activity",
        ]
        assert [int(c) for c in Concept] == list(range(8))

    def test_unknown_names_rejected(self):
        with pytest.raises(InvariantViolation):
            ObjLevel.from_name("XX")
        with pytest.raises(InvariantViolation):
            Concept.from_label("Hair")


class TestSpanInvariants:
    def test_en_span_with_concepts_rejected(self):
        with pytest.raises(InvariantViolation):
            SpanAnnotation("f", "a", 0.0, 1.0, ObjLevel.EN, frozenset({Concept.LOOK}))

    def test_positive_span_needs_concepts(self):
        with pytest.raises(InvariantViolation):
            SpanAnnotation("f", "a", 0.0, 1.0, ObjLevel.S, frozenset())

    def test_empty_span_rejected(self):
        with pytest.raises(InvariantViolation):
            SpanAnnotation("f", "a", 30.0, 30.0, ObjLevel.EN, frozenset())

    def test_clip_label_same_rules(self):
        with pytest.raises(InvariantViolation):
            ClipLabel("c", ObjLevel.EN, frozenset({Concept.BODY}))
        with pytest.raises(InvariantViolation):
            ClipLabel("c", ObjLevel.HN, frozenset())


class TestParseAnnotations:
    def test_single_record(self):
        line = (
            '{"film":"juno","annotator":"a1","start":12.0,"end":30.5,'
            '"level":"S","concepts":["Body","Posture"]}'
        )
        spans = parse_annotations(line)
        assert len(spans) == 1
        s = spans[0]
        assert s.film_id == "juno" and s.annotator_id == "a1"
        assert (s.start, s.end) == (12.0, 30.5)
        assert s.level is ObjLevel.S
        assert s.concepts == frozenset({Concept.BODY, Concept.POSTURE})

    def test_en_with_concepts_reports_line(self):
        text = (
            '{"film":"f","annotator":"a","start":0,"end":1,"level":"EN","concepts":[]}\n'
            '{"film":"f","annotator":"a","start":2,"end":3,"level":"EN","concepts":["Look"]}\n'
        )
        with pytest.raises(InvariantViolation) as err:
            parse_annotations(text)
        assert err.value.line == 2

    def test_empty_span_rejected(self):
        text = '{"film":"f","annotator":"a","start":30.0,"end":30.0,"level":"EN","concepts":[]}'
        with pytest.raises(InvariantViolation):
            parse_annotations(text)

    def test_bad_json_is_malformed(self):
        for text in ('{"film": "f"\n', "[1, 2]\n", "[" * 100_000 + "\n"):
            with pytest.raises(MalformedRecord) as err:
                parse_annotations(text)
            assert err.value.line == 1
        # Only spaces and tabs, JSON's own whitespace, make a line blank;
        # a line of any other whitespace is a record that is not JSON.
        record = '{"film":"f","annotator":"a","start":0,"end":1,"level":"EN","concepts":[]}\n'
        assert len(parse_annotations(record + " \t \n\n" + record)) == 2
        for junk in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", " \x0c\t"):
            with pytest.raises(MalformedRecord, match=r"^line 2: invalid JSON \("):
                parse_annotations(record + junk + "\n" + record)

    def test_missing_field_is_malformed(self):
        with pytest.raises(MalformedRecord):
            parse_annotations('{"film":"f","annotator":"a","start":0,"end":1,"level":"EN"}')

    def test_mistyped_field_is_malformed(self):
        # JSON booleans decode to Python bools, which count as ints, and
        # integers past the float range cannot become times.
        base = '{"film":"f","annotator":"a","start":%s,"end":%s,"level":%s,"concepts":%s}'
        for fields in (
            ("true", "2", '"EN"', "[]"),
            ("0", "false", '"EN"', "[]"),
            ('"0"', "1", '"EN"', "[]"),
            ("0", "1" + "0" * 400, '"EN"', "[]"),
            ("0", "1", '["S"]', '["Body"]'),
            ("0", "1", '"S"', "[[1]]"),
        ):
            with pytest.raises(MalformedRecord):
                parse_annotations(base % fields)

    def test_unknown_level_and_concept(self):
        base = '{"film":"f","annotator":"a","start":0,"end":1,"level":"%s","concepts":%s}'
        with pytest.raises(InvariantViolation):
            parse_annotations(base % ("XL", "[]"))
        with pytest.raises(InvariantViolation):
            parse_annotations(base % ("S", '["Hat"]'))

    def test_parse_serialize_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            spans = []
            for i in range(int(rng.integers(1, 12))):
                level = ObjLevel(int(rng.integers(0, 4)))
                concepts = (
                    frozenset()
                    if level is ObjLevel.EN
                    else frozenset(
                        Concept(int(c))
                        for c in rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
                    )
                )
                start = float(rng.uniform(0, 5000))
                spans.append(
                    SpanAnnotation(
                        f"film{i % 3}",
                        f"a{i % 4}",
                        start,
                        start + float(rng.uniform(0.01, 300)),
                        level,
                        concepts,
                    )
                )
            assert parse_annotations(serialize_annotations(spans)) == spans


def _loads_outcome(line):
    """What ``json.loads`` makes of a line, as ``json_object`` reports it:
    the object, or the reason of the MalformedRecord it raises."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        return f"invalid JSON ({e.msg})"
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    return obj if isinstance(obj, dict) else "record is not a JSON object"


class TestJsonObject:
    CAVS_FILE = json.dumps(
        {
            "config": {"mode": "en-only", "seed": 1},
            "cavs": [
                ConceptVector(c, np.eye(4)[c % 4], 0.5, NegativeMode.EN_ONLY, 1.0, None).to_json()
                for c in CONCEPTS
            ],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
    LINES = [
        '{"a": 1, "b": [true, null, "x"]}',
        '{"film": "\\u65e5\\u672c \\"\\\\ \\u2028\\u0001", "clip": "é日本\u2028"}',
        "{}",
        ' {"a": 1}',
        '{"a": 1} ',
        '\t{"a": 1}\t',
        '\ufeff{"a": 1}',
        "{} {}",
        "{}, {}",
        "[1]",
        "1",
        '"text"',
        "NaN",
        '{"a": NaN, "b": -Infinity}',
        '{"a": 1, "a": 2}',
        '{"a": "\x01"}',
        '{"a": 1',
        "",
        "[" * 100_000,
        '{"a": ' * 100_000,
        CAVS_FILE,
    ]

    def test_same_value_or_message_as_json_loads(self):
        for line in self.LINES:
            try:
                outcome = json_object(line)
            except MalformedRecord as e:
                outcome = e.reason
            # repr: NaN equals itself there, and 1 differs from 1.0.
            assert repr(outcome) == repr(_loads_outcome(line)), line[:40]


class TestClipIndex:
    def test_two_rows(self):
        clips = parse_clip_index("c1,juno,0,60\nc2,juno,60,120\n")
        assert [c.clip_id for c in clips] == ["c1", "c2"]
        assert clips[0].duration == 60.0

    def test_overlap_rejected(self):
        with pytest.raises(InvariantViolation, match="clips 'c1' and 'c2' overlap in film 'juno'"):
            parse_clip_index("c1,juno,0,60\nc2,juno,50,120\n")

    def test_empty_file(self):
        assert parse_clip_index("") == []

    def test_sorted_by_start_within_film(self):
        clips = parse_clip_index("c2,juno,60,120\nc1,juno,0,60\nz,af,0,5\n")
        assert [(c.film_id, c.clip_id) for c in clips] == [
            ("af", "z"),
            ("juno", "c1"),
            ("juno", "c2"),
        ]

    def test_duplicate_clip_id_rejected(self):
        with pytest.raises(InvariantViolation):
            parse_clip_index("c1,juno,0,60\nc1,juno,60,120\n")

    def test_round_trip(self):
        text = "c1,juno,0.0,60.0\nc2,juno,60.0,120.5\n"
        clips = parse_clip_index(text)
        assert parse_clip_index(serialize_clip_index(clips)) == clips


class TestEmbeddings:
    def _random_table(self, rng, n=3, dim=5):
        return EmbeddingTable(
            {f"clip{i}": rng.normal(0, 1, dim).astype(np.float32) for i in range(n)}
        )

    def test_binary_header_and_rows(self):
        rng = np.random.default_rng(0)
        table = self._random_table(rng, n=3, dim=512)
        loaded = load_embeddings(dump_embeddings(table, "binary"))
        assert loaded.dim == 512 and len(loaded) == 3
        assert loaded == table

    def test_nan_component_rejected(self):
        with pytest.raises(InvariantViolation, match="^clip 'c1': non-finite component at index 1"):
            load_embeddings(b"c1,1.0,nan,3.0\n")

    def test_csv_and_binary_encodings_agree_bitwise(self):
        # Round-trip oracle: write the same table both ways, read both
        # back, and require bit-for-bit equality.
        rng = np.random.default_rng(7)
        for _ in range(10):
            table = self._random_table(rng, n=int(rng.integers(1, 6)), dim=int(rng.integers(1, 9)))
            via_csv = load_embeddings(dump_embeddings(table, "csv"))
            via_bin = load_embeddings(dump_embeddings(table, "binary"))
            assert via_csv == via_bin == table
            for cid in table.clip_ids():
                assert via_csv[cid].tobytes() == via_bin[cid].tobytes()

    def test_csv_byte_order_mark_is_dropped(self):
        table = self._random_table(np.random.default_rng(3), n=3, dim=4)
        data = dump_embeddings(table, "csv")
        marked = load_embeddings("\ufeff".encode("utf-8") + data)
        assert marked.clip_ids() == table.clip_ids()
        assert marked == load_embeddings(data)

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation, match="clip 'c2': expected 2 components, got 1"):
            load_embeddings(b"c1,1.0,2.0\nc2,1.0\n")
        with pytest.raises(InvariantViolation, match="clip 'b': expected 3 components, got 4"):
            EmbeddingTable({"a": np.zeros(3), "b": np.zeros(4)})

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="neither magic-prefixed binary nor UTF-8 CSV"):
            load_embeddings(b"\xff\xfe\x00\x01 not text not magic")

    def test_truncated_binary(self):
        blob = dump_embeddings(EmbeddingTable({"a": np.zeros(4)}), "binary")
        with pytest.raises(MalformedRecord, match="^record 1: truncated vector$"):
            load_embeddings(blob[:-3])
        with pytest.raises(MalformedRecord, match="^header: binary payload truncated$"):
            load_embeddings(blob[:10])

    def test_duplicate_clip_rejected(self):
        with pytest.raises(InvariantViolation):
            EmbeddingTable([("a", np.zeros(2)), ("a", np.ones(2))])
