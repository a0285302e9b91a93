"""End-to-end tests of the command-line workflow.

Every test drives ``main`` in process with explicit argument lists, so
exit codes, output tables and manifests are checked exactly as a shell
user would see them.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tensormotion import __version__
from tensormotion.cli import PENALTY_PRESET, RANK_PRESET, main
from tensormotion.evaluation import SUMMARY_FIELDS, SeeSeries
from tensormotion.io import load_reference, save_reference
from tensormotion.predictor import load_collection

SUMMARY_HEADER = "horizon_s,series,min,q1,median,mean,q3,max"
PLOT_HEADER = "frame,truth,prediction,lo1,hi1,lo2,hi2,lo3,hi3"


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_manifest(output_path) -> dict:
    """Load an output's sidecar manifest and verify every digest."""
    doc = json.loads(Path(str(output_path) + ".manifest.json").read_text())
    for section in ("inputs", "outputs"):
        for entry in doc[section].values():
            assert entry["sha256"] == _digest(entry["path"])
    return doc


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Artifacts of one full run: synth through report."""
    root = tmp_path_factory.mktemp("cli_run")
    art = {
        "root": root,
        "data": root / "capture.csv",
        "boundaries": root / "cycles.json",
        "reference": root / "reference.npz",
        "skeleton": root / "skeleton.json",
        "collection": root / "collection.npz",
        "predictions": root / "predictions.npz",
        "bands": root / "bands.npz",
        "prefix": str(root / "report_"),
    }
    steps = [
        [
            "synth", "--out", str(art["data"]),
            "--boundaries-out", str(art["boundaries"]),
            "--cycles", "5", "--period-frames", "80", "--frame-rate", "40",
            "--period-jitter", "0.05", "--noise-cm", "0.2", "--seed", "7",
        ],
        [
            "prep", "--data", str(art["data"]),
            "--out", str(art["reference"]),
            "--skeleton-out", str(art["skeleton"]),
        ],
        [
            "build", "--reference", str(art["reference"]),
            "--out", str(art["collection"]),
            "--rank", "3", "--penalty", "1.0",
            "--past", "1.0", "--future", "0.3",
            "--model-stride", "4", "--max-sweeps", "40",
        ],
        [
            "predict", "--collection", str(art["collection"]),
            "--reference", str(art["reference"]),
            "--skeleton", str(art["skeleton"]),
            "--data", str(art["data"]),
            "--out", str(art["predictions"]),
            "--horizons", "0.1,0.25",
        ],
        [
            "uncertainty", "--collection", str(art["collection"]),
            "--reference", str(art["reference"]),
            "--out", str(art["bands"]),
            "--skeleton", str(art["skeleton"]),
        ],
        [
            "report", "--predictions", str(art["predictions"]),
            "--truth", str(art["data"]),
            "--bands", str(art["bands"]),
            "--skeleton", str(art["skeleton"]),
            "--channel", "spine:z", "--space", "angle",
            "--horizon", "0.2", "--out-prefix", art["prefix"],
        ],
    ]
    for argv in steps:
        code = main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return art


class TestWorkflow:
    """Every stage writes its artifact and they chain without edits."""

    def test_artifacts_exist(self, workspace):
        for key in (
            "data", "boundaries", "reference", "skeleton",
            "collection", "predictions", "bands",
        ):
            assert workspace[key].exists(), key
        assert Path(workspace["prefix"] + "summary.csv").exists()
        assert Path(workspace["prefix"] + "plot.csv").exists()

    def test_boundaries_cover_the_capture(self, workspace):
        doc = json.loads(workspace["boundaries"].read_text())
        ranges = doc["cycles"]
        assert len(ranges) == 5
        assert ranges[0][0] == 0
        for (s0, e0), (s1, e1) in zip(ranges, ranges[1:]):
            assert e0 == s1  # cycles tile the capture
            assert e0 > s0 and e1 > s1

    def test_summary_table(self, workspace):
        lines = (
            Path(workspace["prefix"] + "summary.csv").read_text().splitlines()
        )
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 5  # two horizons, prediction and baseline each
        with np.load(workspace["predictions"], allow_pickle=False) as data:
            horizons = [f"{h:g}" for h in data["horizons_s"]]
            stored = {k: data[k] for k in data.files if k.endswith("_values")}
        seen = set()
        for line in lines[1:]:
            horizon, series, *stats = line.split(",")
            seen.add((horizon, series))
            lo, q1, med, mean, q3, hi = map(float, stats)
            assert lo <= q1 <= med <= q3 <= hi
            assert lo <= mean <= hi
            prefix = "see" if series == "prediction" else "baseline"
            key = f"{prefix}_{horizons.index(horizon)}_values"
            summary = SeeSeries(stored[key]).summary()
            assert stats == [f"{summary[f]:.4f}" for f in SUMMARY_FIELDS]
        assert seen == {
            ("0.1", "prediction"), ("0.1", "baseline"),
            ("0.25", "prediction"), ("0.25", "baseline"),
        }

    def test_plot_table(self, workspace):
        lines = Path(workspace["prefix"] + "plot.csv").read_text().splitlines()
        assert lines[0] == PLOT_HEADER
        assert len(lines) > 20
        frames = []
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 9
            frames.append(int(cells[0]))
            truth, value = float(cells[1]), float(cells[2])
            lo1, hi1, lo2, hi2, lo3, hi3 = map(float, cells[3:])
            # the plotted channel is an angle, as are the nested bands
            assert 0.0 <= truth <= np.pi and 0.0 <= value <= np.pi
            assert lo3 <= lo2 <= lo1 <= value <= hi1 <= hi2 <= hi3
        assert frames == sorted(frames)
        assert len(set(frames)) == len(frames)

    def test_predictions_payload(self, workspace):
        with np.load(workspace["predictions"], allow_pickle=False) as data:
            assert int(data["format_version"]) == 1
            stamps = data["stamps"]
            assert np.all(np.diff(stamps) > 0)
            coords = data["coordinates"]
            # 0.3 s horizon at 40 fps, ten joints including the root
            assert coords.shape[1:] == (12, 10, 3)
            assert coords.shape[0] == stamps.size
            assert data["angles"].shape[1:] == (12, 9, 3)
            assert [float(h) for h in data["horizons_s"]] == [0.1, 0.25]
            for i in range(2):
                values = data[f"see_{i}_values"]
                assert values.shape == data[f"see_{i}_frames"].shape
                assert values.shape == data[f"baseline_{i}_values"].shape
                assert np.all(values >= 0)
            assert np.all(data["gap_frames"] == 0)

    def test_manifests_verify(self, workspace):
        for key in (
            "data", "reference", "collection", "predictions", "bands",
        ):
            _check_manifest(workspace[key])
        doc = _check_manifest(workspace["collection"])
        assert doc["command"] == "build"
        assert doc["parameters"]["rank"] == 3
        assert doc["parameters"]["penalty"] == 1.0
        doc = _check_manifest(Path(workspace["prefix"] + "summary.csv"))
        assert set(doc["outputs"]) == {"summary", "plot"}


class TestSweep:
    """Preset grids are pinned and the sweep trains all of them."""

    def test_preset_grids_pinned(self):
        assert RANK_PRESET == {"ranks": (11, 12, 13, 14, 15), "penalty": 50.0}
        assert PENALTY_PRESET == {
            "penalties": (0.1, 0.6, 1.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0),
            "rank": 13,
        }

    def test_rank_sweep_trains_every_preset(self, workspace, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("sweep")
        code = main([
            "sweep", "--reference", str(workspace["reference"]),
            "--preset", "rank", "--out-dir", str(out_dir),
            "--past", "1.0", "--future", "0.3",
            "--model-stride", "16", "--max-sweeps", "2",
        ])
        assert code == 0
        produced = sorted(out_dir.glob("coll_rank*_penalty50.npz"))
        assert len(produced) == 5
        ranks = set()
        for path in produced:
            collection = load_collection(str(path))
            assert len(collection) > 0
            assert collection.config.regression.penalty == 50.0
            ranks.add(collection.config.regression.rank)
        assert ranks == set(RANK_PRESET["ranks"])
        doc = _check_manifest(out_dir / "coll_rank11_penalty50.npz")
        assert doc["command"] == "sweep"
        assert len(doc["outputs"]) == 5


class TestErrorPaths:
    """Exit codes separate usage, data and numerical failures."""

    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_unknown_option_is_usage_error(self, capsys, tmp_path):
        code = main([
            "synth", "--out", str(tmp_path / "x.csv"), "--frobnicate",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_command_is_usage_error(self):
        assert main([]) == 1

    def test_bad_channel_is_usage_error(self, workspace, tmp_path):
        code = main([
            "prep", "--data", str(workspace["data"]),
            "--out", str(tmp_path / "ref.npz"),
            "--channel", "spine-z",  # missing the colon
        ])
        assert code == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main([
            "build", "--reference", str(tmp_path / "nowhere.npz"),
            "--out", str(tmp_path / "c.npz"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,real,header\n1,2,3,4\n")
        code = main([
            "prep", "--data", str(bad), "--out", str(tmp_path / "ref.npz"),
        ])
        assert code == 2

    def test_wrong_format_version_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad_predictions.npz"
        np.savez(bad, format_version=np.int64(99))
        code = main([
            "report", "--predictions", str(bad),
            "--truth", str(workspace["data"]),
            "--out-prefix", str(tmp_path / "r_"),
        ])
        assert code == 2

    def test_out_of_range_horizon_is_data_error(self, workspace, tmp_path):
        out = tmp_path / "p.npz"
        code = main([
            "predict", "--collection", str(workspace["collection"]),
            "--reference", str(workspace["reference"]),
            "--skeleton", str(workspace["skeleton"]),
            "--data", str(workspace["data"]),
            "--out", str(out), "--horizons", "5.0",
        ])
        assert code == 2
        assert not out.exists()

    def test_unpenalized_degenerate_fit_is_numerical_error(
        self, workspace, tmp_path, capsys
    ):
        """A constant reference makes the unpenalized updates singular."""
        ref = load_reference(str(workspace["reference"]))
        flat = dataclasses.replace(
            ref,
            angles=dataclasses.replace(
                ref.angles,
                frames=np.full_like(ref.angles.frames, np.pi / 4),
            ),
            per_timestep_std=np.zeros_like(ref.per_timestep_std),
        )
        path = tmp_path / "flat.npz"
        save_reference(flat, str(path))
        code = main([
            "build", "--reference", str(path),
            "--out", str(tmp_path / "c.npz"),
            "--rank", "2", "--penalty", "0",
            "--past", "1.0", "--future", "0.3",
            "--model-stride", "16", "--max-sweeps", "5",
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
