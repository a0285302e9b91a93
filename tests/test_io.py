"""File format tests.

Export/ingest must round-trip coordinates bit-exactly (cells are
written with ``repr``), every malformed input is reported with the
offending row and column, and manifests carry verifiable digests.
"""

import hashlib
import json

import numpy as np
import pytest

from tensormotion.cycles import build_reference
from tensormotion.io import (
    FORMAT_VERSIONS,
    DataFormatError,
    export_csv,
    ingest_csv,
    load_archive,
    load_reference,
    save_archive,
    save_reference,
    sha256_file,
    write_manifest,
)
from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    SPACE_JOINT_ANGLE,
    MotionSequence,
)
from tensormotion.predictor import load_collection
from tensormotion.synth import SynthConfig, generate_motion


HEADER = "frame,time,hip_x,hip_y,hip_z,knee_x,knee_y,knee_z"


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngestCsv:
    """Capture parsing."""

    def test_minimal_file(self, tmp_path):
        path = _write(
            tmp_path,
            HEADER + "\n"
            "0,0.0,0.1,0.2,0.3,0.4,0.5,0.6\n"
            "1,0.02,1.1,1.2,1.3,1.4,1.5,1.6\n",
        )
        seq = ingest_csv(path)
        assert seq.joint_names == ("hip", "knee")
        assert seq.space == SPACE_CARTESIAN
        assert seq.frame_rate == pytest.approx(50.0)
        np.testing.assert_allclose(seq.frames[0, 0], [0.1, 0.2, 0.3])
        np.testing.assert_allclose(seq.frames[1, 1], [1.4, 1.5, 1.6])

    def test_explicit_rate_overrides_time_column(self, tmp_path):
        path = _write(
            tmp_path,
            HEADER + "\n"
            "0,0.0,0,0,0,0,0,1\n"
            "1,0.5,0,0,0,0,0,1\n",
        )
        assert ingest_csv(path, frame_rate=120.0).frame_rate == 120.0

    def test_single_row_needs_rate(self, tmp_path):
        path = _write(tmp_path, HEADER + "\n0,0.0,0,0,0,0,0,1\n")
        with pytest.raises(DataFormatError, match="frame rate"):
            ingest_csv(path)
        assert ingest_csv(path, frame_rate=60.0).n_frames == 1

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            ingest_csv(_write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data rows"):
            ingest_csv(_write(tmp_path, HEADER + "\n"))

    def test_missing_time_column(self, tmp_path):
        with pytest.raises(DataFormatError, match="frame,time"):
            ingest_csv(
                _write(tmp_path, "frame,hip_x,hip_y,hip_z\n0,1,2,3\n")
            )

    def test_torn_triplet(self, tmp_path):
        with pytest.raises(DataFormatError, match="triplet"):
            ingest_csv(
                _write(
                    tmp_path,
                    "frame,time,hip_x,hip_z,hip_y,knee_x,knee_y,knee_z\n",
                )
            )

    def test_column_count_not_multiple_of_three(self, tmp_path):
        with pytest.raises(DataFormatError, match="triplet"):
            ingest_csv(_write(tmp_path, "frame,time,hip_x,hip_y\n0,0,1,2\n"))

    def test_duplicate_joint(self, tmp_path):
        with pytest.raises(DataFormatError, match="duplicate"):
            ingest_csv(
                _write(
                    tmp_path,
                    "frame,time,hip_x,hip_y,hip_z,hip_x,hip_y,hip_z\n",
                )
            )

    def test_empty_cell_names_row_and_column(self, tmp_path):
        path = _write(
            tmp_path,
            HEADER + "\n"
            "0,0.0,0,0,0,0,0,1\n"
            "1,0.02,0,,0,0,0,1\n",
        )
        with pytest.raises(DataFormatError, match=r"row 3, column hip_y"):
            ingest_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write(
            tmp_path, HEADER + "\n0,0.0,0,0,banana,0,0,1\n"
        )
        with pytest.raises(DataFormatError, match=r"row 2, column hip_z"):
            ingest_csv(path)

    def test_non_finite_cell(self, tmp_path):
        path = _write(tmp_path, HEADER + "\n0,0.0,0,0,inf,0,0,1\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            ingest_csv(path)

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, HEADER + "\n0,0.0,0,0,0\n")
        with pytest.raises(DataFormatError, match="row 2: 5 cells"):
            ingest_csv(path)

    def test_frame_counter_gap(self, tmp_path):
        path = _write(
            tmp_path,
            HEADER + "\n"
            "0,0.0,0,0,0,0,0,1\n"
            "2,0.04,0,0,0,0,0,1\n",
        )
        with pytest.raises(DataFormatError, match="not contiguous"):
            ingest_csv(path)

    def test_non_increasing_time(self, tmp_path):
        path = _write(
            tmp_path,
            HEADER + "\n"
            "0,1.0,0,0,0,0,0,1\n"
            "1,1.0,0,0,0,0,0,1\n",
        )
        with pytest.raises(DataFormatError, match="not increasing"):
            ingest_csv(path)


class TestExportCsv:
    """Round-trip fidelity."""

    def test_round_trip_bit_exact(self, tmp_path):
        seq, _ = generate_motion(
            SynthConfig(cycle_count=1, base_period_frames=40, seed=6)
        )
        path = tmp_path / "motion.csv"
        export_csv(seq, path)
        back = ingest_csv(path)
        assert back.joint_names == seq.joint_names
        assert back.frames.tobytes() == seq.frames.tobytes()
        assert back.frame_rate == pytest.approx(seq.frame_rate, rel=1e-9)

    def test_header_layout(self, tmp_path):
        seq, _ = generate_motion(
            SynthConfig(cycle_count=1, base_period_frames=40, seed=6)
        )
        path = tmp_path / "motion.csv"
        export_csv(seq, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["frame", "time"]
        assert header[2:5] == ["hip_x", "hip_y", "hip_z"]

    def test_angle_space_rejected(self, tmp_path):
        seq = MotionSequence(
            frames=np.full((2, 1, 3), 0.5),
            frame_rate=60.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid",),
            root_track=np.zeros((2, 3)),
        )
        with pytest.raises(ValueError):
            export_csv(seq, tmp_path / "angles.csv")


class TestReferenceArchive:
    """Reference cycle persistence."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(110)
        seq = MotionSequence(
            frames=rng.uniform(0.2, 2.8, (12, 2, 3)),
            frame_rate=30.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=rng.standard_normal((12, 3)),
        )
        ref = build_reference([seq, seq])
        path = tmp_path / "reference.npz"
        save_reference(ref, path)
        back = load_reference(path)
        assert back.source_cycle_count == 2
        assert back.angles.joint_names == ("mid", "tip")
        assert back.angles.frame_rate == 30.0
        assert back.angles.frames.tobytes() == ref.angles.frames.tobytes()
        assert (
            back.per_timestep_std.tobytes() == ref.per_timestep_std.tobytes()
        )
        assert (
            back.angles.root_track.tobytes()
            == ref.angles.root_track.tobytes()
        )

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(111)
        seq = MotionSequence(
            frames=rng.uniform(0.2, 2.8, (6, 2, 3)),
            frame_rate=30.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((6, 3)),
        )
        path = tmp_path / "reference.npz"
        save_reference(build_reference([seq]), path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.int64(42)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_reference(path)


class TestArchives:
    """The shared ``.npz`` reader rejects archives of the wrong kind."""

    @pytest.fixture
    def reference_path(self, tmp_path):
        seq = MotionSequence(
            frames=np.full((4, 2, 3), 1.0),
            frame_rate=30.0,
            space=SPACE_JOINT_ANGLE,
            joint_names=("mid", "tip"),
            root_track=np.zeros((4, 3)),
        )
        path = tmp_path / "reference.npz"
        save_reference(build_reference([seq]), path)
        return path

    def test_round_trip_stamps_the_kind_version(self, tmp_path):
        path = tmp_path / "bands.npz"
        save_archive(path, "bands", {"angle_std": np.arange(3.0)})
        data = load_archive(path, "bands")
        assert int(data["format_version"]) == FORMAT_VERSIONS["bands"]
        assert data["angle_std"].tobytes() == np.arange(3.0).tobytes()

    def test_reference_is_not_a_collection(self, reference_path):
        with pytest.raises(
            DataFormatError, match="collection archive has no array 'config_json'"
        ):
            load_collection(reference_path)

    def test_missing_array_names_kind_and_array(self, tmp_path):
        path = tmp_path / "other.npz"
        save_archive(path, "predictions", {"stamps": np.arange(3)})
        with pytest.raises(
            DataFormatError, match="reference archive has no array 'angles'"
        ):
            load_reference(path)

    def test_collection_version_mismatch_is_format_error(self, tmp_path):
        path = tmp_path / "collection.npz"
        np.savez(path, format_version=np.int64(FORMAT_VERSIONS["collection"] + 1))
        with pytest.raises(DataFormatError, match="version"):
            load_collection(path)

    def test_plain_array_file_rejected(self, tmp_path):
        path = tmp_path / "plain.npy"
        np.save(path, np.zeros(3))
        with pytest.raises(DataFormatError, match="not an .npz archive"):
            load_archive(path, "reference")


class TestManifest:
    """Run provenance records."""

    def test_digests_verify(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("frame,time\n")
        out = tmp_path / "result.npz"
        out.write_bytes(b"abc123")
        manifest_path = tmp_path / "run.manifest.json"
        write_manifest(
            manifest_path,
            {
                "command": "prep",
                "parameters": {"cutoff": 0.05},
                "inputs": {"capture": data},
                "outputs": {"result": out},
            },
        )
        doc = json.loads(manifest_path.read_text())
        assert doc["command"] == "prep"
        assert doc["parameters"] == {"cutoff": 0.05}
        for entry, path in [
            (doc["inputs"]["capture"], data),
            (doc["outputs"]["result"], out),
        ]:
            assert entry["path"].endswith(path.name)
            assert entry["sha256"] == hashlib.sha256(
                path.read_bytes()
            ).hexdigest()

    def test_sha256_file_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        rng = np.random.default_rng(112)
        path.write_bytes(rng.bytes(100_000))
        assert (
            sha256_file(path)
            == hashlib.sha256(path.read_bytes()).hexdigest()
        )
