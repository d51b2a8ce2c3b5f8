"""Golden fingerprints: the sha256 of every CLI output on fixed inputs.

The determinism check of criterion 8 compares two runs of the same
code, so a refactor could change every result and still pass it. This
module pins the bytes themselves. It runs each subcommand once on
criterion 8's fixtures (the hand-built fusion fixture, a compositional
concept bundle, a linear MLP task, and the error-factor fixture) and
compares the digest of each output file against the recorded value.

Inputs are addressed by relative paths from a temporary working
directory, because configuration headers embed the input paths. The
digests were recorded with numpy 2 on x86-64; a change in any of them
means the program now writes different bytes, and the change must be
declared and the digest updated on purpose.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gazelab
from gazelab import EmbeddingTable, ObjLevel, dump_embeddings, harness, train_mlp
from gazelab.cli import main
from synthfix import (
    FUSION_FIXTURE_ANNOTATIONS_JSONL,
    FUSION_FIXTURE_CLIPS_CSV,
    ids_by_level,
    make_compositional,
    make_error_fixture,
    make_linear_task,
)

#: Each run: output directory name and the argv that writes it.
RUNS = {
    "fuse": ["fuse", "ann.jsonl", "clips.csv", "--sweep", "0.1,0.2,0.4", "--out", "fuse"],
    "gamma": ["gamma", "fuse/projections.jsonl", "--seed", "9", "--out", "gamma"],
    "gamma-exclude-NS": [
        "gamma", "fuse/projections.jsonl", "--exclude", "NS", "--seed", "9",
        "--out", "gamma-exclude-NS",
    ],
    "stats": ["stats", "fuse/merged.jsonl", "--out", "stats"],
    "cav": ["cav", "comp.bin", "comp.jsonl", "--mode", "both", "--seed", "4", "--out", "cav"],
    "pcbm-dt": [
        "pcbm", "comp.bin", "comp.jsonl", "--kind", "dt", "--cavs", "cav/cavs_en-only.json",
        "--seed", "4", "--out", "pcbm-dt",
    ],
    "pcbm-lr": [
        "pcbm", "comp.bin", "comp.jsonl", "--kind", "lr", "--cavs", "cav/cavs_en-only.json",
        "--seed", "4", "--out", "pcbm-lr",
    ],
    "eval": [
        "eval", "lin.bin", "lin.jsonl", "--model", "mlp", "--epochs", "8", "--lr", "0.02",
        "--seed", "6", "--out", "eval",
    ],
    "eval-pcbm-dt": [
        "eval", "comp.bin", "comp.jsonl", "--model", "pcbm-dt", "--seed", "4",
        "--out", "eval-pcbm-dt",
    ],
    "eval-pcbm-lr": [
        "eval", "comp.bin", "comp.jsonl", "--model", "pcbm-lr", "--seed", "4",
        "--out", "eval-pcbm-lr",
    ],
    "error": ["error", "err.jsonl", "err_preds.csv", "--out", "error"],
}

EXPECTED = {
    "fuse": {
        "merged.config.json": "c22a379068e134e9cd51037995833bd21a611184fab3205ecfa6bd3a16797b24",
        "merged.jsonl": "4c209e91f24f663dd1290f6fb9f29dbae867d156cecf4fd9db9a5370dfdf1338",
        "projections.jsonl": "34b23ada6260b2aa93a942243f2b32077419f83fa35dfe8c5c7f1ad8d3886ce0",
        "sweep.csv": "b4ba702aac240be3edd8d5cfc8a5313a7e41e39a8ecb16f80d4a1a4e1ee1e24e",
    },
    "gamma": {
        "gamma.csv": "a5718c1ce46d54079014ad2bbc997655dafea61fe15e6f586a57dd272b041285",
    },
    "gamma-exclude-NS": {
        "gamma.csv": "f46908cbbce083eb1c62bec4e18f2aee45d1599df85ff7d4a204af0feb3dc0cc",
    },
    "stats": {
        "stats.csv": "1846a18281929802e1a1d79ed26dd6fea2a699c7f6c062b73558238f72c3b539",
        "summary.json": "fce823da825592e95a57b7a027420dd442a28bdcff4159fdfaeb1c85d69cd544",
    },
    # The concept axes are the SVM optima certified by duality gap, and
    # each records its gap, chosen C and per-C validation F1, so the
    # axes, the pcbm tree's thresholds and the reports' bytes moved;
    # every F1 in them kept its value.
    "cav": {
        "cavs_en-only.json": "77ad9d8dfadc3d0e93db08de1d355f0ba3b99ae62e3b23d6d4d0c9a400fd4295",
        "cavs_en-plus-without.json": "07cb88e76425e41fb9eece94d33b7955180c67574b6520546f01e4135f6ab7da",
        "concept_f1.csv": "d425f0728c86cef1bc44c0e89fd968a105dca8bfb92cbe03eeb17ad23dc2fd0c",
    },
    "pcbm-dt": {
        "pcbm_report.json": "73034301ac9045c6d098ef64e1dde8dd77df3f12efc78d6eeec8e949f7fdc077",
        "tree.txt": "e94257495ba0cc05418514ee2ff4d44dc5d781553f3a59f05f2bc7384344b590",
    },
    # The logistic head is fitted by Newton to |gradient| < 1e-6; the
    # gradient descent before it stopped at its step cap on this draw
    # (|gradient| 3.3e-5), so the weights moved by up to 5e-3 and the
    # bias by 0.027. The F1 (1.0) kept its value.
    "pcbm-lr": {
        "pcbm_report.json": "522f11122c84a2f4b033abe0bc3b624a46e0a2e1cf93617b9935b1222853178b",
    },
    # Each MLP report records its draws' kept epochs ("kept_epoch").
    "eval": {
        "eval_report.json": "99b91e18c423fb622558c1b7145abe60ccdf1c918b886a47a412665f75561cb5",
        "eval_table.csv": "72807e42f3d0353804f32a8c592402e7c9da70cfb4141d7b564ea8850d157c83",
    },
    "eval-pcbm-dt": {
        "eval_report.json": "581facad399d4cde47ea88f90aab4bd99047102a7815d2fbfbd344b0c9d9b647",
        "eval_table.csv": "42d8b500dccf57e53918ecf203813666647f354781ad997560fa5031c058e5ab",
    },
    "eval-pcbm-lr": {
        "eval_report.json": "8a130ef08e99b5d5e36afde311b487ed8ec388c5e2bb3b3697ac8497cfbb816b",
        "eval_table.csv": "4f256fc5de79f22c07ea1cb66b47e48f1ec909b317a0feedfb121be7758d82dc",
    },
    # The config line of error_factors.csv no longer carries a "seed"
    # key: the factor regression never used one, and error --seed is gone.
    # The Newton fit moved the sixth decimal of six factors and the bias
    # (0.731297 -> 0.731302).
    "error": {
        "error_factors.csv": "a3f338caaf0e39c2c9021c22a7e0dfbcab8090848db6de224e78458dcd9f69a9",
    },
}


def _merged_jsonl(labels) -> str:
    return "".join(
        json.dumps(
            {
                "film": "f",
                "clip": l.clip_id,
                "level": l.level.name,
                "concepts": [c.label for c in sorted(l.concepts)],
                "annotators": [],
            }
        )
        + "\n"
        for l in labels
    )


def _write_inputs(root) -> None:
    (root / "ann.jsonl").write_text(FUSION_FIXTURE_ANNOTATIONS_JSONL)
    (root / "clips.csv").write_text(FUSION_FIXTURE_CLIPS_CSV)
    comp_labels, comp_emb = make_compositional(seed=5, n=240, dim=16)
    (root / "comp.bin").write_bytes(dump_embeddings(comp_emb, "binary"))
    (root / "comp.jsonl").write_text(_merged_jsonl(comp_labels))
    lin_labels, lin_feats = make_linear_task(2, n=500, dim=16)
    (root / "lin.bin").write_bytes(dump_embeddings(EmbeddingTable(lin_feats), "binary"))
    (root / "lin.jsonl").write_text(_merged_jsonl(lin_labels))
    err_labels, err_preds = make_error_fixture(3)
    (root / "err.jsonl").write_text(_merged_jsonl(err_labels))
    (root / "err_preds.csv").write_text(
        "".join(f"{l.clip_id},{p}\n" for l, p in zip(err_labels, err_preds))
    )


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Exit code and {file name: sha256} of every run, in RUNS order."""
    root = tmp_path_factory.mktemp("fingerprints")
    _write_inputs(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        out = {}
        for name, argv in RUNS.items():
            code = main(argv)
            files = sorted((root / name).iterdir()) if code == 0 else []
            out[name] = (
                code,
                {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
            )
        return out
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", list(RUNS))
def test_output_fingerprints(digests, name):
    code, files = digests[name]
    assert code == 0
    assert files == EXPECTED[name]


def test_eval_fits_each_train_row_once(tmp_path, monkeypatch):
    """One ``train_mlp`` call per balanced draw of the EN and HN rows.

    The draws may be fitted in forked workers, so each call is counted as
    a line in a file, which a worker appends to as the test process does."""
    calls = tmp_path / "calls"
    calls.touch()

    def counting(*args, **kwargs):
        with open(calls, "a") as f:
            f.write("train_mlp\n")
        return train_mlp(*args, **kwargs)

    monkeypatch.setattr(harness, "train_mlp", counting)
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main(RUNS["eval"]) == 0
    labels, _ = make_linear_task(2, n=500, dim=16)
    plan = harness.make_folds_from_ids(ids_by_level(labels), seed=6)
    rows = (ObjLevel.EN, ObjLevel.HN)
    draws = [len(harness.balanced_train_sets(plan, ObjLevel.S, neg)) for neg in rows]
    assert len(calls.read_text().splitlines()) == sum(draws)


def test_fitting_commands_never_import_numpy_ma(tmp_path):
    """In numpy 2.x the first ``np.unique`` call imports ``numpy.ma``,
    about 12 ms per process; no fitting command may pay for it."""
    _write_inputs(tmp_path)
    runs = [RUNS[name] for name in ("cav", "pcbm-dt", "pcbm-lr", "eval", "error")]
    script = (
        "import sys\n"
        "from gazelab.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    proc = _run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def _run_script(script, cwd, *args):
    """``python -c script *args`` in ``cwd``, importing this gazelab."""
    src = str(Path(gazelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_eval_bytes_do_not_depend_on_the_worker_count(tmp_path):
    """``eval --model mlp`` fits its draws in one forked worker per usable
    CPU, and in-process on one CPU; both write the recorded bytes."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus < 2:
        pytest.skip(f"{cpus} usable CPU: both runs would fit the draws in-process")
    script = (
        "import os, sys\n"
        "if sys.argv[1] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from gazelab.cli import main\n"
        f"sys.exit(main({RUNS['eval']!r}))\n"
    )
    outputs = {}
    for cpus in ("one", "all"):
        root = tmp_path / cpus
        root.mkdir()
        _write_inputs(root)
        proc = _run_script(script, root, cpus)
        assert proc.returncode == 0, proc.stderr
        outputs[cpus] = {name: (root / "eval" / name).read_bytes() for name in EXPECTED["eval"]}
    assert outputs["one"] == outputs["all"]
    assert {
        name: hashlib.sha256(data).hexdigest() for name, data in outputs["all"].items()
    } == EXPECTED["eval"]
