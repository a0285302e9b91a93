"""File formats: capture CSV, ``.npz`` archives, run manifests.

The capture format is one CSV with a ``frame`` counter, a ``time``
column in seconds, and an ``_x,_y,_z`` column triplet per joint, in
meters. Every cell must parse as a finite number; diagnostics name the
offending row (1-based, counting the header) and column.

Four kinds of ``.npz`` archive pass between the commands:
``reference``, ``collection``, ``predictions`` and ``bands``. All are
written by :func:`save_archive` and read by :func:`load_archive`. The
reader rejects a version other than the kind's entry in
``FORMAT_VERSIONS``, and a lookup of an array the archive lacks raises
:class:`DataFormatError` naming the kind and the array, so an archive of
the wrong kind is a format error too.
Manifests are JSON files recording inputs, outputs, their digests and
the parameters of the run that produced them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from tensormotion.cycles import ReferenceCycle
from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    SPACE_JOINT_ANGLE,
    MotionSequence,
)

__all__ = [
    "DataFormatError",
    "FORMAT_VERSIONS",
    "export_csv",
    "ingest_csv",
    "load_archive",
    "load_reference",
    "save_archive",
    "save_reference",
    "sha256_file",
    "write_manifest",
]

FORMAT_VERSIONS = {"reference": 1, "collection": 1, "predictions": 1, "bands": 1}


class DataFormatError(ValueError):
    """An input file does not satisfy its format."""


def _parse_header(header: list[str], path) -> tuple[str, ...]:
    cells = [c.strip() for c in header]
    if len(cells) < 5 or cells[0] != "frame" or cells[1] != "time":
        raise DataFormatError(
            f"{path}: header must start with 'frame,time' followed by "
            "joint column triplets"
        )
    coords = cells[2:]
    if len(coords) % 3:
        raise DataFormatError(
            f"{path}: {len(coords)} coordinate columns do not form _x,_y,_z "
            "triplets"
        )
    joints = []
    for i in range(0, len(coords), 3):
        triplet = coords[i : i + 3]
        bases = {c.rsplit("_", 1)[0] for c in triplet}
        suffixes = [c.rsplit("_", 1)[-1] for c in triplet]
        if len(bases) != 1 or suffixes != ["x", "y", "z"]:
            raise DataFormatError(
                f"{path}: columns {i + 3}..{i + 5} must be one joint's "
                f"_x,_y,_z triplet, got {triplet}"
            )
        joints.append(triplet[0].rsplit("_", 1)[0])
    if len(set(joints)) != len(joints):
        raise DataFormatError(f"{path}: duplicate joint names in header")
    return tuple(joints)


def _parse_cell(raw: str, row: int, name: str, path) -> float:
    text = raw.strip()
    if not text:
        raise DataFormatError(f"{path}: row {row}, column {name}: empty cell")
    try:
        value = float(text)
    except ValueError as exc:
        raise DataFormatError(
            f"{path}: row {row}, column {name}: not a number: {text!r}"
        ) from exc
    if not math.isfinite(value):
        raise DataFormatError(
            f"{path}: row {row}, column {name}: non-finite value {text!r}"
        )
    return value


def ingest_csv(path, frame_rate: float | None = None) -> MotionSequence:
    """Read a capture CSV into a Cartesian sequence.

    The frame counter must advance by one per row. The frame rate is
    the reciprocal median time step unless overridden; a single-row
    file therefore needs an explicit ``frame_rate``.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        joints = _parse_header(header, path)
        names = [c.strip() for c in header]
        width = len(names)
        frames = []
        times = []
        counters = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataFormatError(
                    f"{path}: row {row_num}: {len(row)} cells, expected {width}"
                )
            values = [
                _parse_cell(cell, row_num, names[i], path)
                for i, cell in enumerate(row)
            ]
            counters.append(values[0])
            times.append(values[1])
            frames.append(values[2:])
    if not frames:
        raise DataFormatError(f"{path}: no data rows")
    counters = np.asarray(counters)
    if np.any(np.diff(counters) != 1):
        bad = int(np.argmax(np.diff(counters) != 1))
        raise DataFormatError(
            f"{path}: frame counter not contiguous at row {bad + 3}"
        )
    if frame_rate is None:
        if len(times) < 2:
            raise DataFormatError(
                f"{path}: cannot infer a frame rate from a single row; "
                "pass frame_rate explicitly"
            )
        dt = float(np.median(np.diff(times)))
        if dt <= 0:
            raise DataFormatError(f"{path}: time column is not increasing")
        frame_rate = 1.0 / dt
    data = np.asarray(frames).reshape(len(frames), len(joints), 3)
    return MotionSequence(
        frames=data,
        frame_rate=frame_rate,
        space=SPACE_CARTESIAN,
        joint_names=joints,
    )


def export_csv(seq: MotionSequence, path) -> None:
    """Write a Cartesian sequence in the capture format.

    Floats are serialized with ``repr``, which round-trips exactly
    through :func:`ingest_csv`.
    """
    if seq.space != SPACE_CARTESIAN:
        raise ValueError("export_csv writes Cartesian data")
    path = Path(path)
    header = ["frame", "time"]
    for j in seq.joint_names:
        header += [f"{j}_x", f"{j}_y", f"{j}_z"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(seq.n_frames):
            row = [str(i), repr(i / seq.frame_rate)]
            row += [repr(float(v)) for v in seq.frames[i].ravel()]
            writer.writerow(row)


class _Archive(dict):
    """The arrays of one archive; a missing one is a format error."""

    def __init__(self, path, kind: str, arrays: dict):
        super().__init__(arrays)
        self.path, self.kind = path, kind

    def __missing__(self, key):
        raise DataFormatError(
            f"{self.path}: {self.kind} archive has no array {key!r}"
        )


def save_archive(path, kind: str, arrays: dict) -> None:
    """Write ``arrays`` to ``path`` as an ``.npz`` archive stamped with
    the format version of ``kind``. The file is opened here because
    ``np.savez`` appends ``.npz`` to a name that lacks it."""
    with open(path, "wb") as f:
        np.savez(f, format_version=np.int64(FORMAT_VERSIONS[kind]), **arrays)


def load_archive(path, kind: str) -> dict:
    """Read every array of an archive written by :func:`save_archive`.

    Raises :class:`DataFormatError` for a file that is no ``.npz``
    archive, a version other than the kind's, and a missing array.
    """
    path = Path(path)
    data = np.load(path, allow_pickle=False)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataFormatError(f"{path}: not an .npz archive")
    with data:
        arrays = _Archive(path, kind, {k: data[k] for k in data.files})
    version = int(arrays["format_version"])
    if version != FORMAT_VERSIONS[kind]:
        raise DataFormatError(
            f"{path}: {kind} format version {version}, expected "
            f"{FORMAT_VERSIONS[kind]}"
        )
    return arrays


def save_reference(ref: ReferenceCycle, path) -> None:
    """Persist a reference cycle as a ``reference`` archive."""
    arrays = {
        "angles": ref.angles.frames,
        "root_track": ref.angles.root_track,
        "per_timestep_std": ref.per_timestep_std,
        "frame_rate": float(ref.angles.frame_rate),
        "joint_names": np.array(ref.angles.joint_names),
        "source_cycle_count": np.int64(ref.source_cycle_count),
    }
    save_archive(path, "reference", arrays)


def load_reference(path) -> ReferenceCycle:
    """Load a reference cycle written by :func:`save_reference`."""
    data = load_archive(path, "reference")
    angles = MotionSequence(
        frames=data["angles"],
        frame_rate=float(data["frame_rate"]),
        space=SPACE_JOINT_ANGLE,
        joint_names=tuple(str(n) for n in data["joint_names"]),
        root_track=data["root_track"],
    )
    return ReferenceCycle(
        angles=angles,
        per_timestep_std=data["per_timestep_std"],
        source_cycle_count=int(data["source_cycle_count"]),
    )


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, payload: dict) -> None:
    """Write a JSON run manifest; file digests for listed paths.

    ``payload`` entries named ``inputs`` or ``outputs`` must be mappings
    of label to path and are augmented with each file's SHA-256.
    """
    enriched = dict(payload)
    for key in ("inputs", "outputs"):
        if key in enriched:
            enriched[key] = {
                label: {"path": str(p), "sha256": sha256_file(p)}
                for label, p in enriched[key].items()
            }
    Path(path).write_text(json.dumps(enriched, indent=2, sort_keys=True) + "\n")
