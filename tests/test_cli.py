"""Command-line drivers: exit codes, file outputs, determinism."""

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gazelab
from gazelab import CONCEPTS, ConceptVector, EmbeddingTable, NegativeMode, cbm, dump_embeddings
from gazelab import TEST_NEGATIVE_SETS, ModelKind, ObjLevel, TaskConfig, core, fuse, fusion, harness
from gazelab.cli import build_parser, main
from synthfix import (
    FUSION_FIXTURE_ANNOTATIONS_JSONL,
    FUSION_FIXTURE_CLIPS_CSV,
    FUSION_FIXTURE_EXPECTED_MERGED,
    ids_by_level,
    make_error_fixture,
    make_linear_task,
    random_fusion_fixture,
    serialize_annotations,
    serialize_clip_index,
)


@pytest.fixture
def fusion_inputs(tmp_path):
    ann = tmp_path / "annotations.jsonl"
    clips = tmp_path / "clips.csv"
    ann.write_text(FUSION_FIXTURE_ANNOTATIONS_JSONL)
    clips.write_text(FUSION_FIXTURE_CLIPS_CSV)
    return ann, clips


def read(path):
    return path.read_text(encoding="utf-8")


def run_fresh(argv, *python_flags, env=os.environ, cwd=None):
    """``gazelab argv`` in a fresh interpreter started with ``python_flags``
    and the environment ``env``, where warnings would reach stderr."""
    paths = [str(Path(gazelab.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "gazelab.cli", *argv],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cav_writes_the_same_bytes_when_the_caller_sets_no_blas_threads(tmp_path):
    """On 2 or more cores, OpenBLAS left to itself runs several threads,
    and some of its products then give other last bits; at 400 x 512
    that moves a ``cav`` axis. Importing gazelab pins one thread unless
    the caller chose, so both runs below write the same bytes."""
    labels, feats = make_linear_task(1, n=400, dim=512)
    (tmp_path / "emb.bin").write_bytes(dump_embeddings(EmbeddingTable(feats), "binary"))
    (tmp_path / "merged.jsonl").write_text(
        "".join(
            json.dumps(
                {"clip": l.clip_id, "level": l.level.name, "concepts": [c.label for c in sorted(l.concepts)]}
            )
            + "\n"
            for l in labels
        )
    )
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    outputs = []
    for name, env in (("unset", unset), ("one", dict(unset, **dict.fromkeys(BLAS_THREAD_VARS, "1")))):
        argv = ["cav", "emb.bin", "merged.jsonl", "--mode", "en-only", "--seed", "1", "--out", name]
        proc = run_fresh(argv, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert outputs[0] == outputs[1]


class TestFuse:
    def test_matches_hand_built_expected_file(self, fusion_inputs, tmp_path):
        ann, clips = fusion_inputs
        out = tmp_path / "out"
        code = main(["fuse", str(ann), str(clips), "--threshold", "0.2", "--out", str(out)])
        assert code == 0
        assert read(out / "merged.jsonl") == FUSION_FIXTURE_EXPECTED_MERGED
        config = json.loads(read(out / "merged.config.json"))
        assert config["threshold"] == 0.2

    def test_threshold_one_with_partial_spans_gives_all_en(self, tmp_path):
        # No span fully covers a clip, so nothing survives at 100%.
        ann = tmp_path / "partial.jsonl"
        ann.write_text(
            '{"film":"f","annotator":"a1","start":5.0,"end":25.0,"level":"S","concepts":["Body"]}\n'
            '{"film":"f","annotator":"a1","start":42.0,"end":55.0,"level":"HN","concepts":["Look"]}\n'
        )
        clips = tmp_path / "clips.csv"
        clips.write_text("c1,f,0,30\nc2,f,30,60\n")
        out = tmp_path / "out"
        assert main(["fuse", str(ann), str(clips), "--threshold", "1.0", "--out", str(out)]) == 0
        levels = [json.loads(line)["level"] for line in read(out / "merged.jsonl").splitlines()]
        assert levels == ["EN", "EN"]

    def test_threshold_point_four_reassigns_predicted_clip(self, fusion_inputs, tmp_path):
        # Hand prediction: at 0.4 both of a1's c2 spans fall below the
        # bar (25% and 33%), so c2 drops from S to a2's HN; a2's full
        # coverage of c2 and c4 keeps the rest unchanged.
        ann, clips = fusion_inputs
        out = tmp_path / "out"
        assert main(["fuse", str(ann), str(clips), "--threshold", "0.4", "--out", str(out)]) == 0
        rows = [json.loads(line) for line in read(out / "merged.jsonl").splitlines()]
        assert [r["level"] for r in rows] == ["EN", "HN", "S", "S", "EN"]
        assert rows[1]["concepts"] == ["Posture"]

    def test_carriage_return_in_quoted_clip_id_is_kept(self, tmp_path):
        # Text inputs are read without newline translation, so a quoted
        # "\r" inside a clip id is not turned into "\n".
        ann = tmp_path / "ann.jsonl"
        ann.write_text(
            '{"film":"f","annotator":"a1","start":0,"end":30,"level":"S","concepts":["Body"]}\n'
        )
        clips = tmp_path / "clips.csv"
        clips.write_bytes(b'"c\r5",f,0,30\r\nc6,f,30,60\r\n')
        out = tmp_path / "out"
        assert main(["fuse", str(ann), str(clips), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in read(out / "merged.jsonl").splitlines()]
        assert [r["clip"] for r in rows] == ["c\r5", "c6"]

    def test_lines_are_json_dumps_of_each_record(self, tmp_path):
        # Ids holding JSON escapes, non-ASCII text, a line separator and a
        # control character. Each line must be the record dict encoded whole.
        odd = '"\\é日本\u2028\x01'
        rng = np.random.default_rng(16)
        clips, spans = [], []
        for film in (f"film{odd}", "plain"):
            film_clips, by_annotator = random_fusion_fixture(rng, film)
            clips += [replace(c, clip_id=f"{film}/{c.clip_id}{odd}") for c in film_clips]
            spans += [
                replace(s, annotator_id=f"{s.annotator_id}{odd}" if s.annotator_id == "a1" else "b")
                for group in by_annotator.values()
                for s in group
            ]
        (tmp_path / "ann.jsonl").write_text(serialize_annotations(spans), encoding="utf-8")
        (tmp_path / "clips.csv").write_text(serialize_clip_index(clips), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["fuse", str(tmp_path / "ann.jsonl"), str(tmp_path / "clips.csv"),
                     "--out", str(out)]) == 0

        projections, merged = fuse(spans, clips)
        merged_records = [
            {
                "film": film,
                "clip": label.clip_id,
                "level": label.level.name,
                "concepts": [c.label for c in sorted(label.concepts)],
                "annotators": sorted(label.annotators),
            }
            for film in sorted(merged)
            for label in merged[film]
        ]
        projection_records = [
            {
                "film": film,
                "annotator": annotator,
                "clip": label.clip_id,
                "level": label.level.name,
                "concepts": [c.label for c in sorted(label.concepts)],
            }
            for film in sorted(projections)
            for annotator in sorted(projections[film])
            for label in projections[film][annotator]
        ]
        for name, records in (("merged", merged_records), ("projections", projection_records)):
            expected = "".join(json.dumps(r) + "\n" for r in records)
            assert (out / f"{name}.jsonl").read_bytes() == expected.encode("ascii")
        assert {r["annotator"] for r in projection_records} == {f"a1{odd}", "b"}
        # Some (level, concepts) comes with several annotator sets.
        shapes = [(r["level"], tuple(r["concepts"]), tuple(r["annotators"])) for r in merged_records]
        assert len({shape[:2] for shape in shapes}) < len(set(shapes))

    def test_own_output_takes_the_layout_path(self, tmp_path, monkeypatch):
        # Two films. fuse --sweep makes one pooled overlap pass per film,
        # read by the labelling and the sweep; gamma and stats read fuse's
        # own lines without a JSON decoder.
        rng = np.random.default_rng(32)
        clips, spans = [], []
        for film in ("f1", "f2"):
            film_clips, by_annotator = random_fusion_fixture(rng, film)
            clips += [replace(c, clip_id=f"{film}/{c.clip_id}") for c in film_clips]
            spans += [s for group in by_annotator.values() for s in group]
        (tmp_path / "ann.jsonl").write_text(serialize_annotations(spans), encoding="utf-8")
        (tmp_path / "clips.csv").write_text(serialize_clip_index(clips), encoding="utf-8")
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        count(core, "json_object")
        count(gazelab.cli, "json_object")
        count(fusion, "_clip_overlaps")
        out = tmp_path / "out"
        assert main(["fuse", str(tmp_path / "ann.jsonl"), str(tmp_path / "clips.csv"),
                     "--sweep", "0.1,0.2,0.3,0.4", "--out", str(out / "fuse")]) == 0
        assert calls == {"json_object": len(spans), "_clip_overlaps": 2}
        calls.clear()
        projections = str(out / "fuse" / "projections.jsonl")
        assert main(["gamma", projections, "--out", str(out / "gamma")]) == 0
        assert main(["gamma", projections, "--exclude", "NS", "--out", str(out / "ns")]) == 0
        assert main(["stats", str(out / "fuse" / "merged.jsonl"), "--out", str(out / "stats")]) == 0
        assert calls == {}

    def test_missing_clip_file_exits_2(self, fusion_inputs, tmp_path):
        ann, _ = fusion_inputs
        code = main(["fuse", str(ann), str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_invariant_violation_exits_3(self, tmp_path, capsys):
        ann = tmp_path / "bad.jsonl"
        ann.write_text(
            '{"film":"f","annotator":"a","start":0,"end":1,"level":"EN","concepts":["Look"]}\n'
        )
        clips = tmp_path / "clips.csv"
        clips.write_text("c1,f,0,10\n")
        code = main(["fuse", str(ann), str(clips), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    def test_sweep_table(self, fusion_inputs, tmp_path):
        ann, clips = fusion_inputs
        out = tmp_path / "out"
        code = main(
            ["fuse", str(ann), str(clips), "--sweep", "0.1,0.2,0.4", "--out", str(out)]
        )
        assert code == 0
        lines = read(out / "sweep.csv").splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "threshold,en,hn,ns,s,delta_en,delta_hn,delta_ns,delta_s"
        assert len(lines) == 5

    @pytest.mark.parametrize("python_flags", [(), ("-W", "error")], ids=["plain", "W-error"])
    def test_unannotated_film_prints_one_warning(self, fusion_inputs, tmp_path, python_flags):
        # A film that no annotator covers is fused as all-EN and named in
        # one stderr line; no Python warning is raised, so -W error
        # changes nothing.
        ann, clips = fusion_inputs
        with clips.open("a") as f:
            f.write("z1,other,0,60\nz2,other,60,120\n")
        out = tmp_path / "out"
        proc = run_fresh(["fuse", str(ann), str(clips), "--out", str(out)], *python_flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: film 'other' has no annotations; fused as all-EN\n"
        en = '{"film": "other", "clip": "%s", "level": "EN", "concepts": [], "annotators": []}\n'
        assert read(out / "merged.jsonl") == FUSION_FIXTURE_EXPECTED_MERGED + en % "z1" + en % "z2"


class TestGamma:
    def _projections(self, tmp_path, duplicate=True):
        ann = tmp_path / "annotations.jsonl"
        clips = tmp_path / "clips.csv"
        ann.write_text(FUSION_FIXTURE_ANNOTATIONS_JSONL)
        clips.write_text(FUSION_FIXTURE_CLIPS_CSV)
        out = tmp_path / "fused"
        assert main(["fuse", str(ann), str(clips), "--out", str(out)]) == 0
        return out / "projections.jsonl"

    def test_identical_annotators_give_gamma_one(self, tmp_path):
        proj = tmp_path / "proj.jsonl"
        lines = []
        for annotator in ("a1", "a2"):
            for i, level in enumerate(["EN", "S", "HN", "EN"]):
                lines.append(
                    json.dumps(
                        {
                            "film": "f",
                            "annotator": annotator,
                            "clip": f"c{i}",
                            "level": level,
                            "concepts": [],
                        }
                    )
                )
        proj.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        assert main(["gamma", str(proj), "--seed", "3", "--out", str(out)]) == 0
        rows = [l for l in read(out / "gamma.csv").splitlines() if l and not l.startswith("#")]
        data = rows[1].split(",")
        assert float(data[2]) == 1.0

    def test_fewer_than_two_annotators_exits_4(self, tmp_path):
        proj = tmp_path / "proj.jsonl"
        proj.write_text(
            json.dumps({"film": "f", "annotator": "a1", "clip": "c0", "level": "EN", "concepts": []})
            + "\n"
        )
        assert main(["gamma", str(proj), "--seed", "3", "--out", str(tmp_path / "o")]) == 4

    def test_exclude_ns_noop_without_ns_clips(self, tmp_path):
        proj = tmp_path / "proj.jsonl"
        rng = np.random.default_rng(5)
        lines = []
        levels = [["EN", "S", "HN"][int(v)] for v in rng.integers(0, 3, 30)]
        for annotator in ("a1", "a2"):
            for i, level in enumerate(levels if annotator == "a1" else reversed(levels)):
                lines.append(
                    json.dumps(
                        {"film": "f", "annotator": annotator, "clip": f"c{i}", "level": level, "concepts": []}
                    )
                )
        proj.write_text("".join(line + "\n" for line in lines))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gamma", str(proj), "--seed", "3", "--out", str(out_a)]) == 0
        assert main(["gamma", str(proj), "--seed", "3", "--exclude", "NS", "--out", str(out_b)]) == 0
        rows_a = [l for l in read(out_a / "gamma.csv").splitlines() if not l.startswith("#")]
        rows_b = [l for l in read(out_b / "gamma.csv").splitlines() if not l.startswith("#")]
        assert rows_a == rows_b

    def test_no_projections_exits_4(self, tmp_path):
        # An empty file has no film to score; it must not average to NaN.
        proj = tmp_path / "proj.jsonl"
        proj.write_text("\n")
        assert main(["gamma", str(proj), "--seed", "3", "--out", str(tmp_path / "o")]) == 4

    def _gamma_csv(self, tmp_path, proj, name, *seed):
        out = tmp_path / name
        assert main(["gamma", str(proj), *seed, "--exclude", "NS", "--out", str(out)]) == 0
        return (out / "gamma.csv").read_bytes()

    def test_seed_required(self, tmp_path, monkeypatch):
        # The null is exact, so gamma needs no seed: without one it exits
        # 0, and --seed is accepted, says so in --help, and changes no byte.
        monkeypatch.delenv("OBY_SEED", raising=False)
        proj = self._projections(tmp_path)
        outputs = {
            self._gamma_csv(tmp_path, proj, "none"),
            self._gamma_csv(tmp_path, proj, "s1", "--seed", "1"),
            self._gamma_csv(tmp_path, proj, "s2", "--seed", "2"),
        }
        assert len(outputs) == 1
        gamma_parser = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices["gamma"]
        assert "ignored" in gamma_parser.format_help()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        # gamma does not read OBY_SEED and records no seed in its header.
        monkeypatch.delenv("OBY_SEED", raising=False)
        proj = self._projections(tmp_path)
        unset = self._gamma_csv(tmp_path, proj, "unset")
        monkeypatch.setenv("OBY_SEED", "11")
        assert self._gamma_csv(tmp_path, proj, "env") == unset
        header = json.loads(unset.decode().splitlines()[0].removeprefix("# config: "))
        assert "seed" not in header and "n_null" not in header


class TestStats:
    def test_stats_csv(self, fusion_inputs, tmp_path):
        ann, clips = fusion_inputs
        fused = tmp_path / "fused"
        assert main(["fuse", str(ann), str(clips), "--out", str(fused)]) == 0
        out = tmp_path / "stats"
        assert main(["stats", str(fused / "merged.jsonl"), "--out", str(out)]) == 0
        lines = read(out / "stats.csv").splitlines()
        assert lines[1] == "level,concept,count,fraction"
        en_row = next(l for l in lines if l.startswith("EN,,"))
        # fixture merges to EN,S,S,S,EN
        assert en_row == "EN,,2,0.400000"
        summary = json.loads(read(out / "summary.json"))
        assert summary["level_fractions"]["S"] == pytest.approx(0.6)


class TestError:
    @staticmethod
    def _fixture_paths(tmp_path, seed):
        """``make_error_fixture(seed)`` as ``error``'s labels and predictions paths."""
        labels, preds = make_error_fixture(seed)
        label_lines = [
            json.dumps(
                {
                    "film": "f",
                    "clip": l.clip_id,
                    "level": l.level.name,
                    "concepts": [c.label for c in sorted(l.concepts)],
                    "annotators": [],
                }
            )
            for l in labels
        ]
        labels_path = tmp_path / "merged.jsonl"
        labels_path.write_text("".join(line + "\n" for line in label_lines))
        preds_path = tmp_path / "preds.csv"
        preds_path.write_text(
            "".join(f"{l.clip_id},{p}\n" for l, p in zip(labels, preds))
        )
        return [str(labels_path), str(preds_path)]

    def test_hn_failure_fixture_writes_negative_weight(self, tmp_path):
        out = tmp_path / "out"
        assert main(["error", *self._fixture_paths(tmp_path, 0), "--out", str(out)]) == 0
        rows = dict(
            line.split(",")
            for line in read(out / "error_factors.csv").splitlines()
            if line and not line.startswith(("#", "factor"))
        )
        assert float(rows["HN"]) < 0
        assert float(rows["EN"]) > 0 and float(rows["S"]) > 0


class TestByteOrderMark:
    """A UTF-8 byte-order mark that starts a text input is dropped."""

    PROJECTIONS = "".join(
        json.dumps({"film": "juno", "annotator": a, "clip": f"c{i}", "level": level}) + "\n"
        for a, levels in [("a1", ["EN", "S", "HN", "S"]), ("a2", ["EN", "S", "S", "HN"])]
        for i, level in enumerate(levels, start=1)
    )
    INPUTS = {
        "ann.jsonl": FUSION_FIXTURE_ANNOTATIONS_JSONL,
        "clips.csv": FUSION_FIXTURE_CLIPS_CSV,
        "proj.jsonl": PROJECTIONS,
        "merged.jsonl": FUSION_FIXTURE_EXPECTED_MERGED,
        "preds.csv": "c1,0\nc2,1\nc3,1\nc4,0\nc5,1\n",
    }

    @staticmethod
    def _outputs(root, argv, inputs, monkeypatch):
        """The bytes of every file ``gazelab argv`` writes, run in ``root``
        on ``inputs`` (so the configs record the same relative paths)."""
        root.mkdir()
        for name, text in inputs.items():
            (root / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(root)
        assert main([*argv, "--out", "o"]) == 0
        return {p.name: p.read_bytes() for p in sorted((root / "o").iterdir())}

    @pytest.mark.parametrize(
        "argv, marked",
        [
            (["fuse", "ann.jsonl", "clips.csv"], "ann.jsonl"),
            (["fuse", "ann.jsonl", "clips.csv"], "clips.csv"),
            (["gamma", "proj.jsonl"], "proj.jsonl"),
            (["stats", "merged.jsonl"], "merged.jsonl"),
            (["error", "merged.jsonl", "preds.csv"], "preds.csv"),
        ],
        ids=["annotations", "clips", "projections", "labels", "predictions"],
    )
    def test_marked_input_gives_the_same_outputs(self, tmp_path, monkeypatch, argv, marked):
        plain = self._outputs(tmp_path / "plain", argv, self.INPUTS, monkeypatch)
        inputs = {**self.INPUTS, marked: "\ufeff" + self.INPUTS[marked]}
        assert self._outputs(tmp_path / "marked", argv, inputs, monkeypatch) == plain


class TestEval:
    def test_linear_bundle_grid(self, tmp_path):
        labels, feats = make_linear_task(0, n=600)
        emb_path = tmp_path / "emb.bin"
        emb_path.write_bytes(dump_embeddings(EmbeddingTable(feats), "binary"))
        label_lines = [
            json.dumps(
                {
                    "film": "f",
                    "clip": l.clip_id,
                    "level": l.level.name,
                    "concepts": [c.label for c in sorted(l.concepts)],
                    "annotators": [],
                }
            )
            for l in labels
        ]
        labels_path = tmp_path / "merged.jsonl"
        labels_path.write_text("".join(line + "\n" for line in label_lines))
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                str(emb_path),
                str(labels_path),
                "--model",
                "mlp",
                "--seed",
                "3",
                "--epochs",
                "120",
                "--lr",
                "0.02",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(read(out / "eval_report.json"))
        assert len(doc["reports"]) == 4
        assert all(r["mean_f1"] >= 0.95 for r in doc["reports"])
        table = read(out / "eval_table.csv").splitlines()
        assert table[1] == "model,train_negatives,test_EN_vs_S,test_EN+HN_vs_S"
        assert table[2].startswith("mlp,EN,")
        assert any(line.startswith("random,") for line in table)

    def test_rerun_byte_identical(self, tmp_path):
        # Full-command determinism for every subcommand runs in the
        # acceptance suite; this covers the eval path.
        labels, feats = make_linear_task(1, n=400, dim=12)
        emb_path = tmp_path / "emb.bin"
        emb_path.write_bytes(dump_embeddings(EmbeddingTable(feats), "binary"))
        label_lines = [
            json.dumps(
                {
                    "film": "f",
                    "clip": l.clip_id,
                    "level": l.level.name,
                    "concepts": [c.label for c in sorted(l.concepts)],
                    "annotators": [],
                }
            )
            for l in labels
        ]
        labels_path = tmp_path / "merged.jsonl"
        labels_path.write_text("".join(line + "\n" for line in label_lines))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                [
                    "eval",
                    str(emb_path),
                    str(labels_path),
                    "--model",
                    "mlp",
                    "--epochs",
                    "20",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out)
        for fname in ("eval_report.json", "eval_table.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# Each command with every option at a non-default value, the values its
# header must record (besides "command" and the seed) and the outputs
# that carry it, each with the keys only that output records.
HEADER_CASES = {
    "fuse": (
        ["{ann}", "{clips}", "--threshold", "0.3", "--basis", "span", "--sweep", "0.4,0.1"],
        {"annotations": "{ann}", "clips": "{clips}", "threshold": 0.3, "basis": "span"},
        {"merged.config.json": {}, "sweep.csv": {"sweep": [0.4, 0.1]}},
    ),
    "gamma": (
        ["{proj}", "--exclude", "NS,HN"],
        {"projections": "{proj}", "exclude": ["HN", "NS"]},
        {"gamma.csv": {}},
    ),
    "stats": (["{labels}"], {"labels": "{labels}"}, {"stats.csv": {}, "summary.json": {}}),
    "cav": (
        ["{emb}", "{labels}", "--mode", "en-only"],
        {"embeddings": "{emb}", "labels": "{labels}", "mode": "en-only"},
        {"concept_f1.csv": {}, "cavs_en-only.json": {}},
    ),
    "pcbm": (
        ["{emb}", "{labels}", "--kind", "lr", "--cavs", "{cavs}", "--train-neg", "HN"]
        + ["--test-neg", "EN,HN"],
        {
            "embeddings": "{emb}",
            "labels": "{labels}",
            "kind": "lr",
            "cavs": "{cavs}",
            "train_neg": "HN",
            "test_neg": "EN,HN",
        },
        {"pcbm_report.json": {}},
    ),
    "eval": (
        ["{emb}", "{labels}", "--model", "pcbm-lr", "--epochs", "3", "--lr", "0.01"]
        + ["--batch", "8"],
        {
            "embeddings": "{emb}",
            "labels": "{labels}",
            "model": "pcbm-lr",
            "epochs": 3,
            "lr": 0.01,
            "batch": 8,
        },
        {"eval_report.json": {}, "eval_table.csv": {}},
    ),
    "error": (
        ["{labels}", "{preds}", "--l2", "0.5"],
        {"labels": "{labels}", "predictions": "{preds}", "l2": 0.5},
        {"error_factors.csv": {}},
    ),
}


def header_inputs(tmp_path):
    """Input files for every command of ``HEADER_CASES``, by placeholder."""
    names = {
        "ann": "annotations.jsonl",
        "clips": "clips.csv",
        "proj": "projections.jsonl",
        "labels": "merged.jsonl",
        "emb": "emb.bin",
        "cavs": "cavs.json",
        "preds": "preds.csv",
    }
    paths = {k: tmp_path / name for k, name in names.items()}
    paths["ann"].write_text(FUSION_FIXTURE_ANNOTATIONS_JSONL)
    paths["clips"].write_text(FUSION_FIXTURE_CLIPS_CSV)
    ratings = {"a": "EN S HN S NS EN", "b": "EN S HN EN NS S"}
    paths["proj"].write_text(
        "".join(
            json.dumps({"film": "f", "annotator": a, "clip": f"c{i}", "level": level}) + "\n"
            for a, levels in ratings.items()
            for i, level in enumerate(levels.split())
        )
    )
    labels, emb = make_linear_task(0, n=100, dim=4)
    paths["labels"].write_text(
        "".join(
            json.dumps(
                {
                    "clip": l.clip_id,
                    "level": l.level.name,
                    "concepts": [c.label for c in sorted(l.concepts)],
                }
            )
            + "\n"
            for l in labels
        )
    )
    paths["emb"].write_bytes(dump_embeddings(EmbeddingTable(emb), "binary"))
    cavs = [
        ConceptVector(c, np.eye(4)[int(c) % 4], 0.0, NegativeMode.EN_ONLY, 1.0, None).to_json()
        for c in CONCEPTS
    ]
    paths["cavs"].write_text(json.dumps({"cavs": cavs}))
    # Right on every clip but the first five.
    paths["preds"].write_text(
        "".join(
            f"{l.clip_id},{int((l.level.name == 'S') != (i < 5))}\n" for i, l in enumerate(labels)
        )
    )
    return {k: str(v) for k, v in paths.items()}


def header_of(path):
    """The configuration an output records."""
    if path.suffix == ".csv":
        first = read(path).splitlines()[0]
        assert first.startswith("# config: ")
        return json.loads(first.removeprefix("# config: "))
    doc = json.loads(read(path))
    return doc if path.name.endswith(".config.json") else doc["config"]


@pytest.mark.parametrize("seed_from", ["flag", "env"])
@pytest.mark.parametrize("command", list(HEADER_CASES))
def test_header_records_every_argument_but_out(tmp_path, monkeypatch, command, seed_from):
    template, values, outputs = HEADER_CASES[command]
    paths = header_inputs(tmp_path)
    argv = [arg.format(**paths) for arg in template]
    expected = {"command": command}
    expected |= {k: v.format(**paths) if isinstance(v, str) else v for k, v in values.items()}
    subparser = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices[command]
    options = {a.dest: a for a in subparser._actions if a.dest not in ("help", "out")}
    # OBY_SEED is set either way: --seed overrides it, and a command
    # without a seed records none. gamma accepts an inert --seed and
    # records none either.
    monkeypatch.setenv("OBY_SEED", "13")
    if "seed" in options:
        if seed_from == "flag":
            argv += ["--seed", "11"]
        if command == "gamma":
            del options["seed"]
        else:
            expected["seed"] = 11 if seed_from == "flag" else 13

    # The case covers every argument the command accepts, each option
    # set away from its default.
    extra = {k for extras in outputs.values() for k in extras}
    assert set(options) == set(expected) - {"command"} | extra
    parsed = vars(build_parser().parse_args([command, *argv, "--out", "x"]))
    for dest, action in options.items():
        if action.option_strings and dest != "seed":
            assert parsed[dest] != action.default, dest

    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    for name, extras in outputs.items():
        assert header_of(out / name) == expected | extras, name


class TestMalformedInputs:
    """Bad input ends in exit 2 with a one-line message, never a traceback."""

    def _exits(self, argv, capsys, expected):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == expected, err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def _exits_2(self, argv, capsys):
        return self._exits(argv, capsys, 2)

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"S"',
            '{"film": "f", "annotator": "a1", "clip": "c1", "level": ["S"], "concepts": []}',
            '{"film": "f", "annotator": "a1", "clip": "c1", "level": 3, "concepts": []}',
        ],
    )
    def test_bad_record_to_stats_and_gamma(self, tmp_path, capsys, line):
        path = tmp_path / "records.jsonl"
        path.write_text(line + "\n")
        self._exits_2(["stats", str(path), "--out", str(tmp_path / "s")], capsys)
        self._exits_2(["gamma", str(path), "--seed", "1", "--out", str(tmp_path / "g")], capsys)

    SPAN = '{"film": "juno", "annotator": "a1", "start": %s, "level": %s, "end": 9, "concepts": %s}'
    BIG_CELL = '"' + "x" * 140_000 + '"'
    OVERSIZED = "unreadable CSV (field larger than field limit (131072))"
    LABEL = '{"clip": "c%d", "level": %s, "concepts": %s}'
    RATING = '{"film": "f", "annotator": "%s", "clip": %s, "level": %s}'

    @pytest.mark.parametrize(
        "argv, first, second, code, message",
        [
            # annotation JSONL
            (["fuse", "{input}", "{clips}"], SPAN % (0, '"S"', '["Body"]'),
             SPAN % ('"0"', '"S"', '["Body"]'), 2, "field 'start' must be a number"),
            (["fuse", "{input}", "{clips}"], SPAN % (0, '"S"', '["Body"]'),
             SPAN % (0, '"EN"', '["Body"]'), 3, "no concept can be attached to an EN rating"),
            # clip index CSV
            (["fuse", "{annotations}", "{input}"], "c1,juno,0,60", "c2,juno,sixty,120", 2,
             "start and end must be numbers"),
            (["fuse", "{annotations}", "{input}"], "c1,juno,0,60", "c2,juno,120,60", 3,
             "clip 'c2': empty, inverted or non-finite range [120.0, 60.0)"),
            # merged-label JSONL
            (["stats", "{input}"], LABEL % (1, '"EN"', "[]"), LABEL % (2, '"S"', '"Body"'), 2,
             "field 'concepts' must be an array of strings"),
            (["stats", "{input}"], LABEL % (1, '"EN"', "[]"), LABEL % (2, '"S"', "[]"), 3,
             "S rating requires at least one concept"),
            # projection JSONL
            (["gamma", "{input}", "--seed", "1"], RATING % ("a", '"c1"', '"EN"'),
             RATING % ("b", '["c1"]', '"EN"'), 2, "field 'clip' must be a string"),
            (["gamma", "{input}", "--seed", "1"], RATING % ("a", '"c1"', '"EN"'),
             RATING % ("b", '"c1"', '"QQ"'), 3, "unknown level 'QQ'"),
            # embedding CSV and predictions CSV: no rule of theirs is a
            # domain rule of one row (the table's checks name the clip)
            (["cav", "{input}", "{labels}", "--seed", "1"], "c1,0.5", "c2,half", 2,
             "non-numeric component"),
            (["error", "{labels}", "{input}"], "c1,0", "c2,yes", 2,
             "prediction/truth must be 0 or 1"),
            # a cell over the csv module's field limit, in each CSV input
            (["fuse", "{annotations}", "{input}"], "c1,juno,0,60", 'c2,juno,"60,120' + BIG_CELL,
             2, OVERSIZED),
            (["cav", "{input}", "{labels}", "--seed", "1"], "c1,0.5", "c2," + BIG_CELL, 2,
             OVERSIZED),
            (["error", "{labels}", "{input}"], "c1,0", "c2," + BIG_CELL, 2, OVERSIZED),
        ],
        ids=[f"{reader}-{case}" for reader in ("annotations", "clips", "labels", "projections")
             for case in ("field", "domain")] + ["embeddings-field", "predictions-field"]
        + [f"{reader}-oversized" for reader in ("clips", "embeddings", "predictions")],
    )
    def test_every_reader_names_the_line(
        self, fusion_inputs, tmp_path, capsys, argv, first, second, code, message
    ):
        ann, clips = fusion_inputs
        path = tmp_path / "input"
        path.write_text(f"{first}\n{second}\n")
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            "".join(
                json.dumps({"clip": f"c{i}", "level": lv, "concepts": [] if lv == "EN" else ["Body"]})
                + "\n"
                for i, lv in enumerate(["EN", "S", "HN"] * 2, start=1)
            )
        )
        files = {"input": path, "clips": clips, "annotations": ann, "labels": labels}
        argv = [arg.format(**files) for arg in argv] + ["--out", str(tmp_path / "o")]
        assert self._exits(argv, capsys, code) == f"error: line 2: {message}\n"

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_bytes(b'{"clip": "\xff"}\n')
        self._exits_2(["stats", str(path), "--out", str(tmp_path / "s")], capsys)

    def test_non_numeric_sweep(self, fusion_inputs, tmp_path, capsys):
        ann, clips = fusion_inputs
        out = tmp_path / "out"
        self._exits_2(["fuse", str(ann), str(clips), "--sweep", "a,b", "--out", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, code", [("0,0.2", 3), ("0.2,1.5", 3), ("nan", 3), ("0.1,-0.2", 3)]
    )
    def test_invalid_sweep_writes_nothing(self, fusion_inputs, tmp_path, capsys, sweep, code):
        # Thresholds outside (0, 1] or NaN are rejected before merged.jsonl
        # or any other output is written.
        ann, clips = fusion_inputs
        out = tmp_path / "out"
        self._exits(["fuse", str(ann), str(clips), "--sweep", sweep, "--out", str(out)], capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["", " ", ","], ids=["empty", "space", "comma"])
    def test_empty_sweep_exits_2_before_reading(self, tmp_path, capsys, sweep):
        # A sweep with no threshold is rejected before the inputs are
        # read: neither of them exists.
        out = tmp_path / "out"
        argv = ["fuse", str(tmp_path / "no.jsonl"), str(tmp_path / "no.csv"), "--sweep", sweep]
        err = self._exits_2(argv + ["--out", str(out)], capsys)
        assert err == f"error: --sweep needs comma-separated numbers, got {sweep!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("exclude", ["", " ", ","], ids=["empty", "space", "comma"])
    def test_empty_exclude_exits_2_before_reading(self, tmp_path, capsys, exclude):
        # An exclude that names no level is rejected before the
        # projections, which do not exist, are read.
        out = tmp_path / "out"
        argv = ["gamma", str(tmp_path / "no.jsonl"), "--exclude", exclude, "--out", str(out)]
        err = self._exits_2(argv, capsys)
        assert err == f"error: --exclude needs comma-separated level names, got {exclude!r}\n"
        assert not out.exists()

    def test_spans_on_a_film_without_clips(self, fusion_inputs, tmp_path, capsys):
        ann, clips = fusion_inputs
        with ann.open("a") as f:
            f.write('{"film": "ghost", "annotator": "a1", "start": 1.0, "end": 9.0, '
                    '"level": "S", "concepts": ["Body"]}\n')
        out = tmp_path / "out"
        err = self._exits(["fuse", str(ann), str(clips), "--out", str(out)], capsys, 4)
        assert "'ghost'" in err
        assert not out.exists()

    @pytest.mark.parametrize("end", ["inf", "1e400"])
    def test_non_finite_clip_bound(self, fusion_inputs, tmp_path, capsys, end):
        # An infinite clip makes every clip-basis fraction 0, which would
        # label c2 EN although a1 and a2 rate 60-300 s S and HN.
        ann, clips = fusion_inputs
        clips.write_text(f"c1,juno,0,60\nc2,juno,60,{end}\n")
        out = tmp_path / "out"
        err = self._exits(["fuse", str(ann), str(clips), "--out", str(out)], capsys, 3)
        assert "line 2" in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("end", ["Infinity", "1e400"])
    @pytest.mark.parametrize("basis", ["clip", "span"])
    def test_non_finite_span_bound(self, fusion_inputs, tmp_path, capsys, end, basis):
        ann, clips = fusion_inputs
        with ann.open("a") as f:
            f.write('{"film": "juno", "annotator": "a3", "start": 10.0, "end": %s, '
                    '"level": "S", "concepts": ["Body"]}\n' % end)
        out = tmp_path / "out"
        argv = ["fuse", str(ann), str(clips), "--basis", basis, "--out", str(out)]
        err = self._exits(argv, capsys, 3)
        assert "line 7" in err and "non-finite" in err
        assert not out.exists()

    def _gamma(self, tmp_path, rows, *flags):
        """``gamma`` argv over (annotator, clip, level) records of film f."""
        path = tmp_path / "projections.jsonl"
        path.write_text(
            "".join(
                json.dumps({"film": "f", "annotator": a, "clip": c, "level": lv}) + "\n"
                for a, c, lv in rows
            )
        )
        return ["gamma", str(path), "--seed", "1", *flags, "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("exclude", ["NS", "EN,HN,NS,S"])
    def test_gamma_pair_with_nothing_to_compare(self, tmp_path, capsys, exclude):
        # a rates both clips NS and b rates them EN and S: once NS is
        # excluded the pair compares nothing, which is not agreement.
        rows = [("a", "c1", "NS"), ("a", "c2", "NS"), ("b", "c1", "EN"), ("b", "c2", "S")]
        err = self._exits(self._gamma(tmp_path, rows, "--exclude", exclude), capsys, 4)
        assert "film 'f', pair a|b" in err
        assert not (tmp_path / "out").exists()

    def test_gamma_aligns_ratings_by_clip(self, tmp_path):
        # b lists a's ratings in the other clip order: they agree exactly.
        rows = [("a", "c1", "EN"), ("a", "c2", "S"), ("b", "c2", "S"), ("b", "c1", "EN")]
        assert main(self._gamma(tmp_path, rows)) == 0
        row = read(tmp_path / "out" / "gamma.csv").splitlines()[2]
        assert row.split(",")[:3] == ["f", "a|b", "1.000000"]

    def test_gamma_annotators_rate_different_clips(self, tmp_path, capsys):
        rows = [("a", "c1", "EN"), ("a", "c2", "S"), ("b", "c1", "EN"), ("b", "c9", "S")]
        err = self._exits(self._gamma(tmp_path, rows), capsys, 4)
        assert "film 'f'" in err and "'a' and 'b'" in err

    def test_gamma_clip_rated_twice(self, tmp_path, capsys):
        rows = [("a", "c1", "EN"), ("a", "c2", "S"), ("b", "c1", "EN"), ("b", "c2", "S")]
        err = self._exits_2(self._gamma(tmp_path, rows + [("b", "c1", "S")]), capsys)
        assert "line 5" in err and "'c1'" in err and "'b'" in err

    @pytest.mark.parametrize(
        "content", ["not json\n", '{"config": {}}\n', '{"cavs": 3}\n', '{"cavs": [1]}\n']
    )
    def test_bad_cavs_file(self, tmp_path, capsys, content):
        labels, emb = make_linear_task(0, n=100, dim=4)
        emb_path = tmp_path / "emb.bin"
        emb_path.write_bytes(dump_embeddings(EmbeddingTable(emb), "binary"))
        labels_path = tmp_path / "merged.jsonl"
        labels_path.write_text(
            "".join(
                json.dumps({"clip": l.clip_id, "level": l.level.name, "concepts": []}) + "\n"
                for l in labels
                if l.level.name == "EN"
            )
        )
        cavs_path = tmp_path / "cavs.json"
        cavs_path.write_text(content)
        argv = ["pcbm", str(emb_path), str(labels_path), "--kind", "dt", "--cavs", str(cavs_path)]
        self._exits_2(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys)

    def test_deeply_nested_cavs_file(self, tmp_path, capsys):
        path = tmp_path / "cavs.json"
        path.write_text("[" * 200_000)
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "dt", "--cavs", str(path)]
        err = self._exits_2(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys)
        assert err == (
            f"error: {path}: not a concept-vector file (invalid JSON (nested too deeply))\n"
        )

    def test_out_names_a_file(self, tmp_path, capsys):
        labels = tmp_path / "merged.jsonl"
        labels.write_text('{"clip": "c1", "level": "S", "concepts": ["Body"]}\n')
        out = tmp_path / "taken"
        out.write_text("keep\n")
        self._exits_2(["stats", str(labels), "--out", str(out)], capsys)
        assert out.read_text() == "keep\n"

    @pytest.mark.parametrize("normal", [1.0, [[1.0, 0.0, 0.0, 0.0]]], ids=["scalar", "nested"])
    def test_cavs_normal_must_be_a_flat_list(self, tmp_path, capsys, normal):
        cavs = [
            ConceptVector(c, np.eye(4)[int(c) % 4], 0.0, NegativeMode.EN_ONLY, 1.0, None).to_json()
            for c in CONCEPTS
        ]
        cavs[0]["unit_normal"] = normal
        path = tmp_path / "cavs.json"
        path.write_text(json.dumps({"cavs": cavs}))
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "dt", "--cavs", str(path)]
        err = self._exits_2(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys)
        assert err == (
            f"error: {path}: not a concept-vector file"
            " (unit_normal must be a flat list of numbers)\n"
        )

    def _pcbm_inputs(self, tmp_path, drop=(), n=100, missing=None):
        """An ``n``-clip, 4-d linear task as pcbm's embeddings and labels,
        without the labels of the levels named in ``drop`` and without
        the embedding of clip ``missing``."""
        labels, emb = make_linear_task(0, n=n, dim=4)
        emb.pop(missing, None)
        emb_path = tmp_path / "emb.bin"
        emb_path.write_bytes(dump_embeddings(EmbeddingTable(emb), "binary"))
        labels_path = tmp_path / "merged.jsonl"
        labels_path.write_text(
            "".join(
                json.dumps(
                    {
                        "clip": l.clip_id,
                        "level": l.level.name,
                        "concepts": [c.label for c in sorted(l.concepts)],
                    }
                )
                + "\n"
                for l in labels
                if l.level.name not in drop
            )
        )
        return [str(emb_path), str(labels_path)]

    def test_train_negatives_without_clips(self, tmp_path, capsys):
        # No HN clip: the HN train row has no negatives to draw from.
        inputs = self._pcbm_inputs(tmp_path, drop=("HN",))
        cavs = [
            ConceptVector(c, np.eye(4)[int(c) % 4], 0.0, NegativeMode.EN_ONLY, 1.0, None).to_json()
            for c in CONCEPTS
        ]
        path = tmp_path / "cavs.json"
        path.write_text(json.dumps({"cavs": cavs}))
        for argv in (
            ["eval", *inputs, "--model", "mlp", "--epochs", "1"],
            ["pcbm", *inputs, "--kind", "lr", "--train-neg", "HN", "--cavs", str(path)],
        ):
            err = self._exits(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys, 4)
            assert err == "error: no training data for classes S/HN\n"

    @pytest.mark.parametrize(
        "argv, hn_kept, message",
        [
            (["pcbm", "--kind", "lr", "--train-neg", "HN"], 0, "no training data for classes S/HN"),
            (["eval", "--model", "pcbm-lr"], 0, "no training data for classes S/HN"),
            (["eval", "--model", "mlp"], 0, "no training data for classes S/HN"),
            (["pcbm", "--kind", "dt"], 5, "class 'HN' has 5 samples, fewer than 10 folds"),
        ],
        ids=["pcbm-without-HN", "eval-without-HN", "eval-mlp-without-HN", "pcbm-5-HN"],
    )
    def test_folds_are_checked_before_fitting(
        self, tmp_path, capsys, monkeypatch, argv, hn_kept, message
    ):
        # A train row the labels cannot fold exits 4 before any concept
        # axis or model is fitted; eval checks its HN row before fitting
        # the EN row.
        calls = []
        for module, name in ((cbm, "fit_all_cavs"), (harness, "train_mlp")):
            fit = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, fit=fit, **k: calls.append(a) or fit(*a, **k)
            )
        emb, labels = self._pcbm_inputs(tmp_path)
        lines = Path(labels).read_text().splitlines(keepends=True)
        hn = [line for line in lines if '"level": "HN"' in line]
        Path(labels).write_text("".join(line for line in lines if line not in hn[hn_kept:]))
        argv = [argv[0], emb, labels, *argv[1:], "--seed", "1", "--out", str(tmp_path / "o")]
        assert self._exits(argv, capsys, 4) == f"error: {message}\n"
        assert calls == []

    def test_missing_feature_is_found_before_fitting(self, tmp_path, capsys, monkeypatch):
        # A clip that only the EN row's last draw trains on has no
        # embedding: eval names it before it fits the first draw. Draws may
        # be fitted in forked workers, so each call appends a line to a file.
        calls = tmp_path / "calls"
        calls.touch()
        fit = harness.train_mlp

        def counting(*args, **kwargs):
            with open(calls, "a") as f:
                f.write("train_mlp\n")
            return fit(*args, **kwargs)

        monkeypatch.setattr(harness, "train_mlp", counting)
        emb_path, labels_path = self._pcbm_inputs(tmp_path)
        labels, emb = make_linear_task(0, n=100, dim=4)
        cfg = TaskConfig(ObjLevel.EN, ModelKind.MLP, seed=1)
        train_sets, *_ = harness.plan_task(cfg, labels, TEST_NEGATIVE_SETS, emb)
        missing = train_sets[-1][1][0]
        assert not any(missing in ids for draw in train_sets[:-1] for ids in draw)
        assert len(train_sets) > 1
        del emb[missing]
        Path(emb_path).write_bytes(dump_embeddings(EmbeddingTable(emb), "binary"))
        argv = ["eval", emb_path, labels_path, "--model", "mlp", "--epochs", "1"]
        err = self._exits(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys, 4)
        assert err == f"error: no embedding for clip {missing!r}\n"
        assert calls.read_text() == ""

    @staticmethod
    def _clip_to_leave_out(labels, role):
        """The clip a case leaves out of the embeddings, by role (folds at seed 1):
        - "axis": an HN clip of the last concept, which no EN-negative cell
          uses, only that concept's axis;
        - "cell": an S clip, which every cell uses;
        - "hn-row": an HN clip of the HN row's first draw, which the EN row
          does not use;
        - "leftover": an EN train clip outside every EN draw, which only the
          concept axes use."""
        if role == "axis":
            last = CONCEPTS[-1]
            return next(l.clip_id for l in labels if l.level is ObjLevel.HN and last in l.concepts)
        if role == "cell":
            return next(l.clip_id for l in labels if l.level is ObjLevel.S)
        plan = harness.make_folds_from_ids(ids_by_level(labels), seed=1)
        if role == "hn-row":
            return harness.balanced_train_sets(plan, ObjLevel.S, ObjLevel.HN)[0][1][0]
        draws = harness.balanced_train_sets(plan, ObjLevel.S, ObjLevel.EN)
        drawn = {cid for _, neg in draws for cid in neg}
        return next(cid for cid in plan.train_ids(ObjLevel.EN) if cid not in drawn)

    @pytest.mark.parametrize(
        "argv, role",
        [
            (["cav"], "axis"),
            (["pcbm", "--kind", "dt"], "axis"),
            (["pcbm", "--kind", "lr"], "axis"),
            (["pcbm", "--kind", "dt", "--cavs"], "cell"),
            (["pcbm", "--kind", "lr", "--cavs"], "cell"),
            (["eval", "--model", "mlp"], "hn-row"),
            (["eval", "--model", "pcbm-dt"], "hn-row"),
            (["eval", "--model", "pcbm-lr"], "hn-row"),
            (["eval", "--model", "pcbm-dt"], "leftover"),
            (["eval", "--model", "pcbm-lr"], "leftover"),
        ],
        ids=[
            "cav", "pcbm-dt", "pcbm-lr", "pcbm-dt-cavs", "pcbm-lr-cavs", "eval-mlp-hn-row",
            "eval-pcbm-dt-hn-row", "eval-pcbm-lr-hn-row", "eval-pcbm-dt-leftover",
            "eval-pcbm-lr-leftover",
        ],
    )
    def test_missing_embedding_exits_before_any_fit(
        self, tmp_path, capsys, monkeypatch, argv, role
    ):
        # Every fitting command checks that each clip it needs has an
        # embedding before it solves a concept axis or fits a model.
        calls = []
        for module, name in (
            (cbm, "train_svm_stack"),
            (harness, "train_mlp"),
            (harness, "train_tree"),
            (harness, "train_logreg"),
        ):
            fit = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, fit=fit, name=name, **k: calls.append(name) or fit(*a, **k)
            )
        labels, _ = make_linear_task(0, n=400, dim=4)
        missing = self._clip_to_leave_out(labels, role)
        emb_path, labels_path = self._pcbm_inputs(tmp_path, n=400, missing=missing)
        if argv[-1] == "--cavs":
            cavs = [
                ConceptVector(c, np.eye(4)[int(c) % 4], 0.0, NegativeMode.EN_ONLY, 1.0, None)
                for c in CONCEPTS
            ]
            path = tmp_path / "cavs.json"
            path.write_text(json.dumps({"cavs": [cav.to_json() for cav in cavs]}))
            argv = [*argv, str(path)]
        out = tmp_path / "o"
        argv = [argv[0], emb_path, labels_path, *argv[1:], "--seed", "1", "--out", str(out)]
        assert self._exits(argv, capsys, 4) == f"error: no embedding for clip {missing!r}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "env, message",
        [
            (None, "a seed is required (--seed or OBY_SEED)"),
            ("abc", "OBY_SEED must be an integer, got 'abc'"),
        ],
        ids=["unset", "not-an-integer"],
    )
    @pytest.mark.parametrize(
        "argv", [["cav"], ["pcbm", "--kind", "dt"], ["eval"]], ids=["cav", "pcbm", "eval"]
    )
    def test_seed_errors(self, tmp_path, capsys, monkeypatch, argv, env, message):
        if env is None:
            monkeypatch.delenv("OBY_SEED", raising=False)
        else:
            monkeypatch.setenv("OBY_SEED", env)
        out = tmp_path / "o"
        argv = [argv[0], *self._pcbm_inputs(tmp_path), *argv[1:], "--out", str(out)]
        assert self._exits(argv, capsys, 4) == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["gazelab-model/2", None])
    def test_cavs_file_format_is_checked(self, tmp_path, capsys, fmt):
        cavs = [
            ConceptVector(c, np.eye(4)[int(c) % 4], 0.0, NegativeMode.EN_ONLY, 1.0, None).to_json()
            for c in CONCEPTS
        ]
        path = tmp_path / "cavs.json"
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "lr", "--cavs", str(path)]
        argv += ["--seed", "1", "--out", str(tmp_path / "o")]
        path.write_text(json.dumps({"cavs": cavs}))
        assert main(argv) == 0
        for doc in cavs:
            doc.pop("format")
            if fmt is not None:
                doc["format"] = fmt
        path.write_text(json.dumps({"cavs": cavs}))
        assert "unsupported model format" in self._exits_2(argv, capsys)

    def test_cavs_of_another_dimension(self, tmp_path, capsys):
        cavs = [
            ConceptVector(c, np.eye(3)[int(c) % 3], 0.0, NegativeMode.EN_ONLY, 1.0, None).to_json()
            for c in CONCEPTS
        ]
        path = tmp_path / "cavs.json"
        path.write_text(json.dumps({"cavs": cavs}))
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "lr", "--cavs", str(path)]
        err = self._exits(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys, 3)
        assert "concept axis 'TypeOfShot' has 3 components, the embeddings have 4" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--test-neg", "HN", "test negatives must be {EN} or {EN, HN}"),
            ("--train-neg", "S", "train negatives must be EN or HN"),
        ],
    )
    def test_pcbm_checks_negatives_before_fitting(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        # Without --cavs, pcbm fits every concept axis first; a bad grid
        # cell must be rejected before that work starts.
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_all_cavs called before the negatives were checked")

        monkeypatch.setattr(cbm, "fit_all_cavs", no_fit)
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "lr", flag, value]
        err = self._exits(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys, 3)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "model, flag, value, code, message",
        [
            ("mlp", "--batch", "0", 3, "MLP batch must be at least 1, got 0"),
            ("mlp", "--batch", "-3", 3, "MLP batch must be at least 1, got -3"),
            ("mlp", "--epochs", "-3", 3, "MLP epochs must be at least 0, got -3"),
            ("mlp", "--lr", "0", 3, "MLP learning rate must be finite and > 0, got 0.0"),
            ("mlp", "--lr", "-0.1", 3, "MLP learning rate must be finite and > 0, got -0.1"),
            ("mlp", "--lr", "nan", 3, "MLP learning rate must be finite and > 0, got nan"),
            ("mlp", "--lr", "inf", 3, "MLP learning rate must be finite and > 0, got inf"),
            ("pcbm-dt", "--batch", "0", 3, "MLP batch must be at least 1, got 0"),
            # A finite rate that is too large still trains, and diverges.
            ("mlp", "--lr", "1e308", 5, "training diverged in epoch 1; lower the learning rate"),
        ],
    )
    def test_eval_options_are_checked(
        self, tmp_path, capsys, monkeypatch, model, flag, value, code, message
    ):
        # Both train rows' settings are checked before any concept axis
        # is fitted, and nothing is written.
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_all_cavs called before the options were checked")

        monkeypatch.setattr(cbm, "fit_all_cavs", no_fit)
        out = tmp_path / "o"
        argv = ["eval", *self._pcbm_inputs(tmp_path), "--model", model, flag, value]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self._exits(argv + ["--seed", "1", "--out", str(out)], capsys, code)
        assert err == f"error: {message}\n"
        assert not out.exists()

    @staticmethod
    def _fresh(argv, tmp_path):
        """``gazelab argv --seed 1`` in a fresh interpreter, where numpy's
        warnings would reach stderr."""
        return run_fresh([*argv, "--seed", "1", "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("lr, code", [("0.02", 0), ("1e308", 5)])
    def test_eval_leaves_no_worker_running(self, tmp_path, capsys, lr, code):
        # The MLP draws may be fitted in forked workers; none outlives
        # the command, whether it succeeds or a draw diverges.
        argv = ["eval", *self._pcbm_inputs(tmp_path), "--model", "mlp", "--epochs", "4", "--lr", lr]
        assert main([*argv, "--seed", "1", "--out", str(tmp_path / "o")]) == code
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the draws run in-process"
    )
    def test_eval_with_a_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        # A worker killed mid-fit (by the out-of-memory killer, say) ends
        # the command with one line and exit 1, and nothing is written.
        # Two usable CPUs are claimed so that the draws go to the pool.
        parent = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("an MLP draw was fitted in the parent")
            os._exit(9)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(harness, "train_mlp", die)
        out = tmp_path / "o"
        argv = ["eval", *self._pcbm_inputs(tmp_path), "--model", "mlp", "--epochs", "4"]
        err = self._exits(argv + ["--seed", "1", "--out", str(out)], capsys, 1)
        assert err == "error: a worker process fitting the MLP draws died; no output was written\n"
        assert not (out / "eval_report.json").exists()
        assert multiprocessing.active_children() == []

    def test_divergence_prints_one_line(self, tmp_path):
        # The diverging run must print only its error.
        argv = ["eval", *self._pcbm_inputs(tmp_path), "--model", "mlp", "--lr", "1e308"]
        proc = self._fresh(argv, tmp_path)
        assert proc.returncode == 5
        assert proc.stderr == "error: training diverged in epoch 1; lower the learning rate\n"

    @staticmethod
    def _cavs_file(tmp_path, **first):
        """A cavs file of eight 4-d axes, the first with ``first`` written over it."""
        cavs = [
            ConceptVector(c, np.eye(4)[int(c) % 4], 0.0, NegativeMode.EN_ONLY, 1.0, None).to_json()
            for c in CONCEPTS
        ]
        cavs[0].update(first)
        path = tmp_path / "cavs.json"
        path.write_text(json.dumps({"cavs": cavs}))
        return str(path)

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("bias", "nan", "bias must be a finite number"),
            ("bias", 10**400, "bias must be a finite number"),
            ("cv_f1", True, "cv_f1 must be a finite number"),
            ("gap", float("nan"), "gap must be a finite number"),
            ("chosen_c", "1.0", "chosen_c must be a finite number"),
            ("c_mean_f1", [[1.0, "0.5"]], "F1 must be a finite number"),
            ("unit_normal", [10**400, 0, 0, 0], "int too large to convert to float"),
        ],
        ids=["bias-string", "bias-huge", "cv_f1-bool", "gap-nan", "chosen_c-string",
             "curve-string", "normal-huge"],
    )
    def test_cavs_numbers_must_be_finite(self, tmp_path, capsys, key, value, reason):
        path = self._cavs_file(tmp_path, **{key: value})
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "dt", "--cavs", path]
        err = self._exits_2(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys)
        assert err == f"error: {path}: not a concept-vector file ({reason})\n"

    def test_cavs_without_the_solve_record_give_the_same_pcbm(self, tmp_path):
        # Files written before each axis recorded its gap, chosen C and
        # per-C F1 lack those keys; pcbm uses none of them.
        path = self._cavs_file(tmp_path)
        doc = json.loads(Path(path).read_text())
        for cav in doc["cavs"]:
            for key in ("gap", "converged", "chosen_c", "c_mean_f1"):
                del cav[key]
        older = tmp_path / "older.json"
        older.write_text(json.dumps(doc))
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "dt", "--seed", "1"]
        reports = []
        for cavs, out in ((path, "new"), (older, "old")):
            assert main(argv + ["--cavs", str(cavs), "--out", str(tmp_path / out)]) == 0
            reports.append(json.loads((tmp_path / out / "pcbm_report.json").read_text()))
        for r in reports:
            del r["config"]["cavs"]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("kind", ["dt", "lr"])
    def test_pcbm_without_cavs_fits_en_only_axes(self, tmp_path, kind):
        # pcbm without --cavs gives the same head as cav --mode en-only
        # followed by pcbm --cavs on that file.
        inputs = self._pcbm_inputs(tmp_path)
        seed = ["--seed", "2"]
        assert main(["cav", *inputs, "--mode", "en-only", *seed, "--out", str(tmp_path / "c")]) == 0
        cavs = ["--cavs", str(tmp_path / "c" / "cavs_en-only.json")]
        outputs = []
        for name, extra in (("own", []), ("given", cavs)):
            out = tmp_path / name
            assert main(["pcbm", *inputs, "--kind", kind, *extra, *seed, "--out", str(out)]) == 0
            report = json.loads((out / "pcbm_report.json").read_text())
            del report["config"]["cavs"]
            tree = (out / "tree.txt").read_text() if kind == "dt" else None
            outputs.append((report, tree))
        assert outputs[0] == outputs[1]

    def test_overflowing_normal_prints_one_line(self, tmp_path):
        path = self._cavs_file(tmp_path, unit_normal=[1e308, 1e308, 0.0, 0.0])
        proc = self._fresh(["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "dt", "--cavs", path], tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == f"error: {path}: normal must have unit norm, got inf\n"

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("concept", "Bodyy", "unknown concept 'Bodyy'"),
            ("unit_normal", [1.5, 0.0, 0.0, 0.0], "normal must have unit norm, got 1.5"),
        ],
        ids=["unknown-concept", "long-normal"],
    )
    def test_cavs_invariants_name_the_file(self, tmp_path, capsys, key, value, reason):
        path = self._cavs_file(tmp_path, **{key: value})
        argv = ["pcbm", *self._pcbm_inputs(tmp_path), "--kind", "dt", "--cavs", path]
        err = self._exits(argv + ["--seed", "1", "--out", str(tmp_path / "o")], capsys, 3)
        assert err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["pcbm", "--kind", "dt"], 1),
            (["pcbm", "--kind", "lr"], 1),
            (["pcbm", "--kind", "dt", "--cavs"], 1),
            (["pcbm", "--kind", "lr", "--cavs"], 1),
            (["eval", "--model", "pcbm-dt"], 1),
            (["eval", "--model", "pcbm-lr"], 1),
            (["eval", "--model", "mlp", "--epochs", "1"], 0),
        ],
        ids=["pcbm-dt", "pcbm-lr", "pcbm-dt-cavs", "pcbm-lr-cavs", "eval-pcbm-dt", "eval-pcbm-lr",
             "eval-mlp"],
    )
    def test_concept_heads_run_train_pcbm_once(self, tmp_path, monkeypatch, argv, calls):
        # pcbm and eval's concept heads share one path; eval's MLP does not take it.
        made = []
        train_pcbm = cbm.train_pcbm
        monkeypatch.setattr(
            cbm, "train_pcbm", lambda *a, **k: made.append(a) or train_pcbm(*a, **k)
        )
        if argv[-1] == "--cavs":
            argv = [*argv, self._cavs_file(tmp_path)]
        argv = [argv[0], *self._pcbm_inputs(tmp_path), *argv[1:], "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert len(made) == calls

    def test_eval_mlp_plans_each_row_once(self, tmp_path, monkeypatch):
        # run_task plans both rows before it fits a draw, and eval plans
        # nothing of its own: one fold plan per row.
        plans = []
        make_folds = harness.make_folds_from_ids
        monkeypatch.setattr(
            harness, "make_folds_from_ids", lambda *a, **k: plans.append(a) or make_folds(*a, **k)
        )
        argv = ["eval", *self._pcbm_inputs(tmp_path), "--model", "mlp", "--epochs", "1"]
        assert main([*argv, "--seed", "1", "--out", str(tmp_path / "o")]) == 0
        assert len(plans) == 2

    def test_eval_zero_epochs_is_valid(self, tmp_path):
        # Zero epochs keeps each draw's initialization, as documented.
        argv = ["eval", *self._pcbm_inputs(tmp_path), "--epochs", "0", "--batch", "1"]
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "o")]) == 0

    # At 0 the fit of GOOD_ROWS would have no finite optimum: every EN
    # and S clip succeeds, so their weights would grow without bound.
    @pytest.mark.parametrize("l2", ["nan", "-5", "inf", "0"])
    def test_error_l2_must_be_finite_and_non_negative(self, tmp_path, capsys, l2):
        argv = ["error", *self._error_inputs(tmp_path), "--out", str(tmp_path / "o")]
        assert main(argv + ["--l2", "1e-6"]) == 0
        out = tmp_path / "bad"
        err = self._exits(argv[:-1] + [str(out), "--l2", l2], capsys, 3)
        assert err == f"error: L2 penalty must be finite and > 0, got {float(l2)}\n"
        assert not out.exists()

    def test_clip_id_in_two_films(self, fusion_inputs, tmp_path, capsys):
        # One id for clips of two films would give two merged records of
        # c1 (S on juno, EN on sofia) that every later stage keys alike.
        ann, clips = fusion_inputs
        clips.write_text(FUSION_FIXTURE_CLIPS_CSV + "c1,sofia,0,60\n")
        out = tmp_path / "out"
        err = self._exits(["fuse", str(ann), str(clips), "--out", str(out)], capsys, 3)
        assert err == "error: line 6: duplicate clip id 'c1'\n"
        assert not out.exists()

    def test_merged_labels_repeat_a_clip(self, tmp_path, capsys):
        path = tmp_path / "merged.jsonl"
        path.write_text(
            '{"film": "juno", "clip": "c1", "level": "S", "concepts": ["Body"]}\n'
            '{"film": "juno", "clip": "c2", "level": "EN"}\n'
            '{"film": "sofia", "clip": "c1", "level": "HN", "concepts": ["Look"]}\n'
        )
        out = tmp_path / "out"
        err = self._exits_2(["stats", str(path), "--out", str(out)], capsys)
        assert err == "error: line 3: second record of clip 'c1'\n"
        assert not out.exists()

    def test_merged_label_invariant_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "merged.jsonl"
        path.write_text(
            '{"clip": "c1", "level": "S", "concepts": ["Body"]}\n'
            '{"clip": "c2", "level": "EN", "concepts": ["Body"]}\n'
        )
        err = self._exits(["stats", str(path), "--out", str(tmp_path / "o")], capsys, 3)
        assert err == "error: line 2: no concept can be attached to an EN rating\n"

    def test_projection_level_names_its_line(self, tmp_path, capsys):
        rows = [("a", "c1", "EN"), ("b", "c1", "QQ")]
        err = self._exits(self._gamma(tmp_path, rows), capsys, 3)
        assert err == "error: line 2: unknown level 'QQ'\n"

    # c1..c6 are EN, S, HN, EN, S, HN; the valid rows miss only on c3.
    GOOD_ROWS = ["c1,0", "c2,1", "c3,1", "c4,0", "c5,1", "c6,0"]

    def _error_inputs(self, tmp_path, rows=GOOD_ROWS):
        """``error``'s labels (c1..c6) and predictions (``rows``) as paths."""
        labels = tmp_path / "merged.jsonl"
        labels.write_text(
            "".join(
                json.dumps({"clip": f"c{i}", "level": level, "concepts": concepts}) + "\n"
                for i, (level, concepts) in enumerate(
                    [("EN", []), ("S", ["Body"]), ("HN", ["Look"])] * 2, start=1
                )
            )
        )
        preds = tmp_path / "preds.csv"
        preds.write_text("".join(row + "\n" for row in rows))
        return [str(labels), str(preds)]

    @pytest.mark.parametrize(
        "rows",
        [
            ["c1,7"] + GOOD_ROWS[1:],  # a prediction other than 0 or 1
            [row + ",0" for row in GOOD_ROWS[:4]] + ["c5,1,-4", "c6,0,0"],
            ["c1,0,0", "c2,1,1"] + GOOD_ROWS[2:],  # a truth on some rows only
            GOOD_ROWS[:2] + ["c3,1,0"] + GOOD_ROWS[3:],
            GOOD_ROWS + ["c1,1"],  # one clip predicted twice
        ],
    )
    def test_bad_predictions_to_error(self, tmp_path, capsys, rows):
        labels, preds = self._error_inputs(tmp_path)
        argv = ["error", labels, preds, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        self._error_inputs(tmp_path, rows)
        self._exits_2(argv, capsys)

    @pytest.mark.parametrize("rows", [[], ["# no rows"]])
    def test_error_without_predictions(self, tmp_path, capsys, rows):
        argv = ["error", *self._error_inputs(tmp_path, rows), "--out", str(tmp_path / "o")]
        err = self._exits(argv, capsys, 4)
        assert err == "error: there are no predictions to attribute\n"
