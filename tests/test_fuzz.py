"""Fuzzing the JSONL readers and the CSV inputs through the command line.

Arbitrary text, arbitrary JSON values, and records with the expected
keys but arbitrary values go to ``fuse`` (annotation JSONL), ``stats``
(merged labels) and ``gamma`` (projections, with any set of levels
excluded); rows of clip ids, 0/1 values and arbitrary cells go to
``error`` (predictions CSV), and rows of clip ids, films and time cells
to ``fuse`` (clip index); binary and CSV embedding tables go to ``cav``.
Whatever the input, the command must end in one of the documented exit
codes: 0 on success, 2 to 5 on rejected input. An exception escaping
``main`` fails the test. When ``fuse`` succeeds, every span and clip
bound it read must be finite; when ``gamma`` succeeds, every pair it
reports compared at least one clip, and the same records in another
order give a byte-identical result. Clip ids and film names of any
text, CSV-quoted in the clip index and the predictions and written raw
into the JSONL files, pass unchanged from ``fuse`` to ``error``.
"""

import csv
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gazelab.cli import main
from gazelab.core import EMBEDDING_MAGIC, load_embeddings, parse_annotations, parse_clip_index
from synthfix import FUSION_FIXTURE_ANNOTATIONS_JSONL, FUSION_FIXTURE_CLIPS_CSV

EXIT_CODES = {0, 2, 3, 4, 5}
LEVELS = ["EN", "HN", "NS", "S"]
CONCEPT_LABELS = ["Body", "Look", "Posture", "Activity"]
KEYS = ["film", "annotator", "clip", "start", "end", "level", "concepts", "annotators"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# Values a real record holds, so that many records get past the type
# checks and exercise the domain rules and the pipeline behind them.
plausible = (
    st.sampled_from(LEVELS)
    | st.sampled_from(["juno", "a1", "a2", "c1", "c2"])
    | st.lists(st.sampled_from(CONCEPT_LABELS), max_size=2)
    | st.floats(-10, 400)
    | st.integers(-5, 400)
)
records = st.dictionaries(
    st.sampled_from(KEYS) | st.text(max_size=3), plausible | json_values, max_size=9
)
lines = st.one_of(
    st.text(max_size=30),
    json_values.map(json.dumps),
    records.map(json.dumps),
)
files = st.lists(lines, max_size=6).map("\n".join)

#: Non-finite time literals: as JSON writes them, and finite-looking
#: literals that overflow to infinity.
NON_FINITE = ["Infinity", "-Infinity", "NaN", "1e400", "-1e400"]


def _with_bound(line: str, key: str, literal: str) -> str:
    """A fixture span with its ``key`` bound written as ``literal``."""
    record = json.loads(line)
    record[key] = "BOUND"
    return json.dumps(record).replace('"BOUND"', literal)


# Annotation files for ``fuse``: the generic files above, or the fusion
# fixture's spans, some with a non-finite bound, so that many files
# reach the projection.
fixture_spans = st.sampled_from(FUSION_FIXTURE_ANNOTATIONS_JSONL.splitlines())
span_lines = fixture_spans | st.builds(
    _with_bound, fixture_spans, st.sampled_from(["start", "end"]), st.sampled_from(NON_FINITE)
)
annotation_files = files | st.lists(span_lines, min_size=1, max_size=6).map("\n".join)

# Six labelled clips for ``error``: c1..c6 are EN, S, HN, EN, S, HN.
CLIPS = [f"c{i}" for i in range(1, 7)]
LABELS_JSONL = "".join(
    json.dumps({"clip": clip, "level": level, "concepts": concepts}) + "\n"
    for clip, (level, concepts) in zip(CLIPS, [("EN", []), ("S", ["Body"]), ("HN", ["Look"])] * 2)
)
cells = (
    st.sampled_from(CLIPS + ["c7"])
    | st.sampled_from(["0", "1", " 1", "01", "7", "-4", "1.0", ""])
    | st.text(max_size=4)
)
# A well-formed file (distinct clips, a truth on every row or on none)
# with up to two junk rows mixed in, so that many files reach the
# regression and the rest probe the row checks.
well_formed = st.builds(
    lambda rows, with_truth: [f"{c},{p},{t}" if with_truth else f"{c},{p}" for c, p, t in rows],
    st.lists(
        st.tuples(st.sampled_from(CLIPS), st.sampled_from("01"), st.sampled_from("01")),
        min_size=1,
        max_size=6,
        unique_by=lambda row: row[0],
    ),
    st.booleans(),
)
junk_rows = st.lists(cells, min_size=1, max_size=4).map(",".join) | st.text(max_size=12)
prediction_files = (
    st.builds(lambda rows, junk: rows + junk, well_formed, st.lists(junk_rows, max_size=2))
    .flatmap(st.permutations)
    .map("\n".join)
)

# Clip files for ``fuse``: some of the fusion fixture's own rows (its
# spans are on film juno) with up to three rows of plausible cells,
# fixture rows with an infinite end, or junk mixed in, so that many
# files reach the projection and the rest probe the clip-index checks.
time_cells = (
    st.floats(-10, 400).map(repr)
    | st.integers(-5, 400).map(str)
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", " 60 ", "", "x"])
)
fixture_clips = st.sampled_from(FUSION_FIXTURE_CLIPS_CSV.splitlines())
clip_rows = (
    st.builds(
        lambda row, end: f"{row.rsplit(',', 1)[0]},{end}",
        fixture_clips,
        st.sampled_from(["inf", "1e400"]),
    )
    | st.builds(
        lambda *cells: ",".join(cells),
        st.sampled_from(["c1", "c2", "c6", "c7", ""]),
        st.sampled_from(["juno", "juno", "other", ""]),
        time_cells,
        time_cells,
    )
    | st.lists(st.sampled_from(["c1", "juno", "60", '"', ""]), max_size=5).map(",".join)
    | st.text(max_size=12)
)
clip_files = (
    st.builds(
        lambda rows, extra: rows + extra,
        st.lists(fixture_clips, max_size=5, unique=True),
        st.lists(clip_rows, max_size=3),
    )
    .flatmap(st.permutations)
    .map("\n".join)
)

# Embedding tables for ``cav``: a header width and rows of a labelled
# or stray clip id with float32 components, finite or not, either all
# of that width or ragged, in either encoding. Binary payloads may lose
# bytes at the end or gain junk; CSV files may gain junk rows.
EMBEDDED = CLIPS[:3] + ["c7"]
clip_ids = st.sampled_from(EMBEDDED) | st.text(max_size=3)
components = st.floats(width=32)
rectangular = st.integers(1, 3).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.tuples(clip_ids, st.lists(components, min_size=width, max_size=width)),
            min_size=1,
            max_size=4,
            unique_by=lambda row: row[0],
        ),
    )
)
ragged = st.tuples(
    st.integers(0, 3), st.lists(st.tuples(clip_ids, st.lists(components, max_size=3)), max_size=4)
)
tables = rectangular | ragged


def _binary_table(table, cut: int, junk: bytes) -> bytes:
    width, rows = table
    parts = [EMBEDDING_MAGIC, struct.pack("<I", width)]
    for clip_id, vec in rows:
        raw = clip_id.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw, struct.pack(f"<{len(vec)}f", *vec)]
    data = b"".join(parts)
    return data[: len(data) - cut] + junk


def _csv_table(table, junk: list[str]) -> bytes:
    lines = [",".join([clip_id, *map(repr, vec)]) for clip_id, vec in table[1]] + junk
    return "\n".join(lines).encode("utf-8")


binary_tables = st.builds(
    _binary_table, tables, st.just(0) | st.integers(1, 6), st.just(b"") | st.binary(max_size=4)
) | st.binary(max_size=24).map(lambda data: EMBEDDING_MAGIC + data)
csv_cells = st.sampled_from(["nan", "1e400", "", "x", '"', " 1"]) | st.floats(-3, 3).map(repr)
csv_tables = st.builds(
    _csv_table,
    tables,
    st.just([]) | st.lists(st.lists(clip_ids | csv_cells, max_size=4).map(",".join), max_size=2),
) | st.binary(max_size=24)

# Labels with no TypeOfShot positive: once the embeddings load, ``cav``
# stops at the first concept (exit 4) before it fits any axis.
CAV_LABELS_JSONL = "".join(
    json.dumps({"clip": clip, "level": level, "concepts": concepts}) + "\n"
    for clip, (level, concepts) in zip(CLIPS[:3], [("EN", []), ("S", ["Body"]), ("HN", ["Look"])])
)

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run(text: str, *argv: str) -> int:
    """``main(argv)`` with ``{tmp}`` in each argument naming a directory
    that holds ``text`` as ``input``, the fusion fixture's clip index as
    ``clips.csv`` and the six labelled clips as ``labels.jsonl``."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "input").write_text(text, encoding="utf-8")
        (Path(tmp) / "clips.csv").write_text(FUSION_FIXTURE_CLIPS_CSV)
        (Path(tmp) / "labels.jsonl").write_text(LABELS_JSONL)
        return main([arg.format(tmp=tmp) for arg in argv])


@FUZZ
@given(annotation_files)
def test_fuse_annotations(text):
    code = run(text, "fuse", "{tmp}/input", "{tmp}/clips.csv", "--out", "{tmp}/out")
    assert code in EXIT_CODES
    if code == 0:
        assert all(math.isfinite(s.start) and math.isfinite(s.end) for s in parse_annotations(text))


@FUZZ
@given(files)
def test_stats_merged_labels(text):
    assert run(text, "stats", "{tmp}/input", "--out", "{tmp}/out") in EXIT_CODES


# Projection files for ``gamma``: the generic files above, records of
# two or three annotators on one or two films with plausible clips and
# levels, or valid files in which every annotator of a film rates the
# same clips once, so that many files reach the agreement score.
projection_records = st.builds(
    lambda film, annotator, clip, level: json.dumps(
        {"film": film, "annotator": annotator, "clip": clip, "level": level}
    ),
    st.sampled_from(["juno", "up"]),
    st.sampled_from(["a1", "a2", "a3"]),
    st.sampled_from(["c1", "c2", "c3"]),
    st.sampled_from(LEVELS),
)


@st.composite
def projection_grids(draw):
    lines = []
    for film in draw(st.sampled_from([["juno"], ["juno", "up"]])):
        clips = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
        for annotator in ["a1", "a2", "a3"][: draw(st.integers(2, 3))]:
            for clip in clips:
                record = {"film": film, "annotator": annotator, "clip": clip}
                lines.append(json.dumps({**record, "level": draw(st.sampled_from(LEVELS))}))
    return "\n".join(lines)


projection_files = (
    files
    | st.lists(projection_records, min_size=2, max_size=8).map("\n".join)
    | projection_grids()
)


@FUZZ
@given(projection_files, st.sets(st.sampled_from(LEVELS)), st.randoms(use_true_random=False))
def test_gamma_projections(text, excluded, rnd):
    # Whatever levels are excluded, a successful run reports no pair
    # that was left with nothing to compare, and the same records in
    # another order give the same gamma.csv, byte for byte.
    exclude = ",".join(sorted(excluded))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text, encoding="utf-8")
        argv = ["gamma", str(path), "--seed", "1", "--exclude", exclude, "--out"]
        code = main([*argv, f"{tmp}/out"])
        assert code in EXIT_CODES
        if code == 0:
            result = (Path(tmp) / "out/gamma.csv").read_text()
            rows = result.splitlines()[2:-1]
            assert all(int(row.rsplit(",", 1)[1]) > 0 for row in rows)
            lines = text.splitlines()
            rnd.shuffle(lines)
            path.write_text("\n".join(lines), encoding="utf-8")
            assert main([*argv, f"{tmp}/shuffled"]) == 0
            assert (Path(tmp) / "shuffled/gamma.csv").read_text() == result


@FUZZ
@given(prediction_files)
def test_error_predictions(text):
    code = run(text, "error", "{tmp}/labels.jsonl", "{tmp}/input", "--out", "{tmp}/out")
    assert code in EXIT_CODES


@FUZZ
@given(clip_files)
def test_fuse_clip_index(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "clips.csv").write_text(text, encoding="utf-8")
        (root / "annotations.jsonl").write_text(FUSION_FIXTURE_ANNOTATIONS_JSONL)
        argv = [str(root / "annotations.jsonl"), str(root / "clips.csv"), "--sweep", "0.1,0.5"]
        code = main(["fuse", *argv, "--out", str(root / "out")])
        assert code in EXIT_CODES
        if code != 0:
            return
        parsed = parse_clip_index(text)
        assert all(math.isfinite(c.start) and math.isfinite(c.end) for c in parsed)
        clips = [(c.film_id, c.clip_id) for c in parsed]
        merged = [json.loads(line) for line in (root / "out/merged.jsonl").read_text().splitlines()]
        assert sorted((m["film"], m["clip"]) for m in merged) == sorted(clips)
        assert len(set(clips)) == len(clips)
        sweep = (root / "out/sweep.csv").read_text().splitlines()[2:]
        assert [sum(map(int, row.split(",")[1:5])) for row in sweep] == [len(clips)] * 2


def run_cav(data: bytes) -> None:
    """``gazelab cav`` on ``data`` as the embedding table and the labels
    above. Whenever the table loads, every component must be finite."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "emb").write_bytes(data)
        (root / "labels.jsonl").write_text(CAV_LABELS_JSONL)
        argv = ["cav", str(root / "emb"), str(root / "labels.jsonl"), "--seed", "1"]
        code = main([*argv, "--out", str(root / "out")])
    assert code in EXIT_CODES
    if code == 4:  # past the table: it stopped at the first concept
        table = load_embeddings(data)
        assert all(np.isfinite(table[clip]).all() for clip in table.clip_ids())


@FUZZ
@given(binary_tables)
def test_cav_binary_embeddings(data):
    run_cav(data)


@FUZZ
@given(csv_tables)
def test_cav_csv_embeddings(data):
    run_cav(data)


# Names as the readers keep them: cells are stripped, a prediction row
# whose first cell starts with '#' is a comment, and a byte-order mark
# that starts a file is dropped.
names = st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=5).filter(
    lambda name: name == name.strip() and not name.startswith(("#", "\ufeff"))
)


def _csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def fuse_then_error(root: Path, ids: list[str], film: str) -> list[str]:
    """``fuse`` on the fusion fixture with its clip ids and film renamed,
    then ``error`` on the merged labels (written raw) with a prediction of
    1 per clip; the factor rows of ``error``."""
    spans = [json.loads(line) for line in FUSION_FIXTURE_ANNOTATIONS_JSONL.splitlines()]
    lines = [json.dumps({**span, "film": film}, ensure_ascii=False) for span in spans]
    (root / "ann.jsonl").write_text("\n".join(lines), encoding="utf-8")
    bounds = [row.split(",")[2:] for row in FUSION_FIXTURE_CLIPS_CSV.splitlines()]
    clips = [[cid, film, *b] for cid, b in zip(ids, bounds)]
    (root / "clips.csv").write_text(_csv_text(clips), encoding="utf-8")
    assert main(["fuse", f"{root}/ann.jsonl", f"{root}/clips.csv", "--out", f"{root}/o"]) == 0
    merged = [json.loads(line) for line in (root / "o/merged.jsonl").read_text().splitlines()]
    assert [(m["clip"], m["level"]) for m in merged] == list(zip(ids, "EN S S S EN".split()))
    lines = [json.dumps(m, ensure_ascii=False) for m in merged]
    (root / "labels.jsonl").write_text("\n".join(lines), encoding="utf-8")
    (root / "preds.csv").write_text(_csv_text([[cid, 1] for cid in ids]), encoding="utf-8")
    assert main(["error", f"{root}/labels.jsonl", f"{root}/preds.csv", "--out", f"{root}/e"]) == 0
    return (root / "e/error_factors.csv").read_text().splitlines()[1:]


@FUZZ
@given(st.lists(names, min_size=5, max_size=5, unique=True), names)
@example(["c,1", "c 2", '"c3"', 'c"4', "c\n5"], "juno")  # CSV-quoted ids
@example(["c1", "c\u20282", "c\x853", "c4", "c5"], "ju\u2028n\x85o")  # raw in JSON strings
def test_names_pass_from_fuse_to_error(ids, film):
    # Renamed, the fixture merges as before and gives the same factors.
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as ref:
        expected = fuse_then_error(Path(ref), ["c1", "c2", "c3", "c4", "c5"], "juno")
        assert fuse_then_error(Path(tmp), ids, film) == expected
