"""Model bank over the reference cycle and real-time prediction.

One regression model is trained per reference position: its input is the
window of the ``past_seconds`` of angles ending at that position, its
output the same window shifted ``future_seconds`` ahead. Because early
positions need history from the end of the cycle, training runs on the
reference extended by its own tail; model time indices refer to frames
of that extended sequence. At prediction time the most recent observed
window is located in the extended reference by open-ended warping and
the model anchored nearest to the matched phase produces the next
``future_seconds`` of angles, which are back-transformed to coordinates.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, fields

import numpy as np

from tensormotion._dtw import CostRows
from tensormotion.alignment import locate_in_reference
from tensormotion.cycles import ReferenceCycle, extend_reference
from tensormotion.io import DataFormatError, load_archive, save_archive
from tensormotion.kinematics import (
    SPACE_CARTESIAN,
    SPACE_JOINT_ANGLE,
    MotionSequence,
    Skeleton,
    angles_to_coordinates,
    to_joint_angles,
)
from tensormotion.regression import RegressionConfig, fit, predict
from tensormotion.tensor_ops import CpFactors

__all__ = [
    "CoefficientCollection",
    "CollectionEntry",
    "PipelineConfig",
    "PredictionBatch",
    "PredictionFrame",
    "build_collection",
    "load_collection",
    "predict_window",
    "run_online",
    "save_collection",
    "select_coefficient",
]

log = logging.getLogger(__name__)

ROOT_POLICIES = ("hold", "linear")


@dataclass(frozen=True)
class PipelineConfig:
    """Windowing and scheduling parameters of the prediction pipeline.

    ``past_seconds`` is the observed window length, ``future_seconds``
    the prediction horizon (never longer than the window),
    ``model_stride_frames`` the spacing of trained models along the
    reference, and ``update_stride_frames`` how often a new prediction
    is issued. The refresh interval may not exceed the horizon,
    otherwise some frames would never receive a prediction.
    """

    past_seconds: float
    future_seconds: float
    frame_rate: float
    model_stride_frames: int = 1
    update_stride_frames: int = 1
    regression: RegressionConfig = RegressionConfig(rank=13, penalty=50.0)

    def __post_init__(self):
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if self.past_seconds <= 0:
            raise ValueError("past_seconds must be positive")
        if not 0 < self.future_seconds <= self.past_seconds:
            raise ValueError(
                "future_seconds must be positive and at most past_seconds"
            )
        if self.model_stride_frames < 1:
            raise ValueError("model_stride_frames must be at least 1")
        if self.update_stride_frames < 1:
            raise ValueError("update_stride_frames must be at least 1")
        if self.past_frames < 2:
            raise ValueError("past window must span at least 2 frames")
        if self.future_frames < 1:
            raise ValueError("future window must span at least 1 frame")
        if self.update_stride_frames > self.future_frames:
            raise ValueError(
                f"update stride ({self.update_stride_frames} frames) exceeds "
                f"the horizon ({self.future_frames} frames); some frames "
                "would never be predicted"
            )

    @property
    def past_frames(self) -> int:
        return int(round(self.past_seconds * self.frame_rate))

    @property
    def future_frames(self) -> int:
        return int(round(self.future_seconds * self.frame_rate))

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        """Rebuild a config from :meth:`to_json` text.

        A missing or unknown field raises :class:`DataFormatError`.
        """
        raw = _fields_of(json.loads(text), cls)
        regression = RegressionConfig(**_fields_of(raw["regression"], RegressionConfig))
        return cls(**{**raw, "regression": regression})


def _fields_of(raw, cls) -> dict:
    """``raw``, checked to name exactly the fields of dataclass ``cls``."""
    names = {f.name for f in fields(cls)}
    if not isinstance(raw, dict) or raw.keys() != names:
        got = sorted(raw) if isinstance(raw, dict) else raw
        raise DataFormatError(
            f"{cls.__name__} needs the fields {sorted(names)}, got {got!r}"
        )
    return raw


@dataclass(frozen=True)
class CollectionEntry:
    """One trained model: its anchor frame in the extended reference and
    its coefficient factors."""

    time_index: int
    factors: CpFactors


@dataclass(frozen=True)
class CoefficientCollection:
    """Bank of models anchored along the extended reference."""

    config: PipelineConfig
    entries: tuple[CollectionEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("collection has no entries")
        idx = [e.time_index for e in self.entries]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("entry time indices must be strictly increasing")
        shapes = {e.factors.shape for e in self.entries}
        ranks = {e.factors.rank for e in self.entries}
        if len(shapes) != 1 or len(ranks) != 1:
            raise ValueError("entries disagree on factor shapes")

    @property
    def time_indices(self) -> np.ndarray:
        return np.array([e.time_index for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PredictionFrame:
    """A single predicted frame.

    ``horizon_frames`` counts forward from the last observed frame
    (1-based). ``angles`` are clipped to ``[0, pi]``;
    ``clamped_entries`` says how many entries the clip actually moved.
    ``coordinates`` are the back-transformed positions, root included.
    """

    horizon_frames: int
    angles: np.ndarray
    coordinates: np.ndarray
    model_index: int
    clamped_entries: int


@dataclass(frozen=True)
class PredictionBatch:
    """All frames predicted at one update.

    ``last_observed_frame`` is the 0-based stream index of the newest
    frame that entered the window; predicted frames cover indices
    ``last_observed_frame + 1 ... + horizon``. ``gap_frames`` counts
    frames the stream skipped since the previous batch.
    """

    last_observed_frame: int
    model_index: int
    frames: tuple[PredictionFrame, ...]
    gap_frames: int = 0


def build_collection(
    reference: ReferenceCycle, config: PipelineConfig
) -> CoefficientCollection:
    """Train one model per reference position.

    Positions step by ``model_stride_frames`` through the extended
    reference; each fit warm-starts from its predecessor, which keeps
    neighboring anchors on one optimization track.
    Fits that stop at ``max_sweeps`` without meeting the tolerance are
    counted and reported in one logged warning per build.
    """
    past, future = config.past_frames, config.future_frames
    if reference.length_frames < past:
        raise ValueError(
            f"reference cycle ({reference.length_frames} frames) is shorter "
            f"than the observation window ({past} frames)"
        )
    ext = extend_reference(reference, past)
    frames = ext.frames
    n_ext = frames.shape[0]
    if n_ext < past + future:
        raise ValueError("extended reference cannot host a single model window")
    entries = []
    warm = None
    capped = 0
    for end in range(past - 1, n_ext - future, config.model_stride_frames):
        x = frames[end - past + 1 : end + 1]
        y = frames[end - past + 1 + future : end + 1 + future]
        result = fit(x, y, config.regression, init=warm)
        warm = result.factors
        capped += not result.converged
        entries.append(CollectionEntry(time_index=end, factors=result.factors))
    if capped:
        log.warning(
            "%d of %d fits stopped at max_sweeps=%d without converging",
            capped,
            len(entries),
            config.regression.max_sweeps,
        )
    return CoefficientCollection(config=config, entries=tuple(entries))


def select_coefficient(
    window: MotionSequence,
    extended_reference: MotionSequence,
    collection: CoefficientCollection,
    cost=None,
) -> tuple[int, CpFactors]:
    """Pick the model whose anchor is nearest the window's current phase.

    The window is located in the extended reference by open-ended
    warping. A match inside the duplicated head (before the first
    anchor) is mapped one cycle forward before the nearest-anchor
    lookup; ties between anchors go to the earlier one. ``cost``, if
    given, holds the window-to-reference frame distances already (see
    :func:`~tensormotion.alignment.accumulated_cost`).
    """
    past = collection.config.past_frames
    matched = locate_in_reference(window, extended_reference, cost=cost)
    cycle_len = extended_reference.n_frames - past
    anchors = collection.time_indices
    if matched < anchors[0] and cycle_len > 0:
        matched += cycle_len
    idx = int(np.argmin(np.abs(anchors - matched)))
    return idx, collection.entries[idx].factors


def _future_roots(
    root_track: np.ndarray, horizon: int, policy: str
) -> np.ndarray:
    if policy not in ROOT_POLICIES:
        raise ValueError(f"unknown root policy {policy!r}; use one of {ROOT_POLICIES}")
    last = root_track[-1]
    if policy == "hold" or root_track.shape[0] < 2:
        return np.broadcast_to(last, (horizon, 3)).copy()
    step = last - root_track[-2]
    return last + np.arange(1, horizon + 1)[:, None] * step


def predict_window(
    window: MotionSequence,
    factors: CpFactors,
    skeleton: Skeleton,
    config: PipelineConfig,
    model_index: int = -1,
    root_policy: str = "hold",
) -> list[PredictionFrame]:
    """Predict the next ``future_frames`` frames from one observed window.

    The model maps the whole window to its shifted image; only the tail
    beyond the last observed frame is emitted. Predicted angles are
    clipped to ``[0, pi]`` (counting what the clip moved) and
    back-transformed with the skeleton's fixed segment lengths. The root
    is extrapolated per ``root_policy``: ``"hold"`` repeats the last
    observed root, ``"linear"`` continues its last step.
    """
    if window.space != SPACE_JOINT_ANGLE:
        raise ValueError("predict_window expects an angle-space window")
    if window.n_frames != config.past_frames:
        raise ValueError(
            f"window has {window.n_frames} frames, config expects "
            f"{config.past_frames}"
        )
    if window.frames.shape[1:] != factors.input_shape:
        raise ValueError(
            f"window layout {window.frames.shape[1:]} does not match "
            f"factors {factors.input_shape}"
        )
    if window.joint_names != skeleton.non_root_joints:
        raise ValueError("window joints do not match the skeleton")

    shifted = predict(window.frames, factors)
    tail = shifted[-config.future_frames :]
    clipped = np.clip(tail, 0.0, np.pi)
    clamped_per_frame = np.count_nonzero(clipped != tail, axis=(1, 2))
    roots = _future_roots(window.root_track, config.future_frames, root_policy)
    coords = angles_to_coordinates(clipped, roots, skeleton)
    return [
        PredictionFrame(
            horizon_frames=h + 1,
            angles=clipped[h],
            coordinates=coords[h],
            model_index=model_index,
            clamped_entries=int(clamped_per_frame[h]),
        )
        for h in range(config.future_frames)
    ]


def run_online(
    stream,
    reference: ReferenceCycle,
    collection: CoefficientCollection,
    skeleton: Skeleton,
    root_policy: str = "hold",
):
    """Consume a Cartesian frame stream and yield prediction batches.

    ``stream`` yields ``(J, 3)`` position arrays in ``skeleton.joints``
    order, or ``(timestamp, frame)`` pairs. With timestamps, a jump
    exceeding 1.5 frame intervals is logged and reported as
    ``gap_frames`` on the next batch; processing continues with the
    frames that did arrive. A frame whose timestamp is not later than
    the last accepted one (a duplicate or backwards stamp) is logged
    and dropped: it does not enter the window or advance the stream
    index, and as it did arrive, it does not count as a missing frame
    when the next forward step is checked for a gap. A frame with a
    non-finite coordinate (an occluded marker) is logged and dropped
    too, and it does not advance the stream index either; it counts as
    one frame in the next batch's ``gap_frames``, with or without
    timestamps, and its stamp is the one the next step is measured
    from.

    The first batch appears once ``past_frames`` frames are buffered;
    later batches follow every ``update_stride_frames`` frames. Feeding
    the same frames offline through :func:`select_coefficient` and
    :func:`predict_window` at the same stream positions reproduces the
    batches exactly.

    The phase lookup keeps a ring of ``past_frames`` cost rows
    (:class:`~tensormotion._dtw.CostRows`), one per frame in the window,
    each holding distances from that frame's angles to frames of the
    extended reference. An update admits the frames that arrived since
    the previous one and hands the ring to the warping. On an extended
    reference of at least ``_PRUNE_MIN_WIDTH`` frames a new row holds
    only the columns near its frame's nearest reference frames, found in
    a k-d tree built once per stream; the pruned scan computes any other
    cell it reads when it reads it, and full rows where it falls back to
    the full scan. The tree also gives each row's exact minimum where the
    nearest frame is unique beyond rounding; elsewhere the minimum comes
    from the full row. On narrower references, where the full scan reads
    every cell, a new row is computed in full at once. This is exact: the
    angle transform treats each frame on its own and each cost cell
    depends on its frame pair alone, so a kept cell is bit for bit the
    cell a cold lookup on the same window computes.
    """
    cfg = collection.config
    past = cfg.past_frames
    ext = extend_reference(reference, past)
    ring = CostRows(ext.frames.reshape(ext.n_frames, -1), past)
    joint_count = len(skeleton.joints)
    expected_dt = 1.0 / cfg.frame_rate

    buffer: list[np.ndarray] = []
    count = 0
    scored = 0  # frames accepted up to the previous batch
    prev_time = None
    pending_gap = 0
    dropped = 0  # frames rejected for their stamps since the last accepted one
    for item in stream:
        if isinstance(item, tuple) and len(item) == 2:
            stamp_time, frame = item
        else:
            stamp_time, frame = None, item
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (joint_count, 3):
            raise ValueError(
                f"stream frame has shape {frame.shape}, expected "
                f"({joint_count}, 3)"
            )
        if stamp_time is not None and prev_time is not None:
            dt = stamp_time - prev_time
            if dt <= 0:
                log.warning(
                    "dropped a frame before frame %d: timestamp %.4f s is "
                    "not later than the previous %.4f s",
                    count,
                    stamp_time,
                    prev_time,
                )
                dropped += 1
                continue
            if dt > 1.5 * expected_dt:
                missed = int(round(dt * cfg.frame_rate)) - 1 - dropped
                if missed > 0:
                    pending_gap += missed
                    log.warning(
                        "stream gap: %.4f s (~%d frames) before frame %d",
                        dt,
                        missed,
                        count,
                    )
        dropped = 0
        prev_time = stamp_time
        if not np.isfinite(frame).all():
            log.warning(
                "dropped a frame before frame %d: non-finite coordinates",
                count,
            )
            pending_gap += 1
            continue
        buffer.append(frame)
        if len(buffer) > past:
            buffer.pop(0)
        count += 1
        if count >= past and (count - past) % cfg.update_stride_frames == 0:
            cart = MotionSequence(
                frames=np.stack(buffer),
                frame_rate=cfg.frame_rate,
                space=SPACE_CARTESIAN,
                joint_names=skeleton.joints,
            )
            window, _ = to_joint_angles(cart, skeleton)
            fresh = min(count - scored, past)
            ring.admit(window.frames[-fresh:].reshape(fresh, -1))
            idx, factors = select_coefficient(window, ext, collection, cost=ring)
            frames = predict_window(
                window, factors, skeleton, cfg, model_index=idx,
                root_policy=root_policy,
            )
            yield PredictionBatch(
                last_observed_frame=count - 1,
                model_index=idx,
                frames=tuple(frames),
                gap_frames=pending_gap,
            )
            pending_gap = 0
            scored = count


def save_collection(collection: CoefficientCollection, path) -> None:
    """Persist a collection as a ``collection`` archive (see
    :mod:`tensormotion.io`).

    Factor matrices are stored stacked per mode in float64, so a
    reloaded collection predicts bit-identically.
    """
    entries = collection.entries
    n_in = len(entries[0].factors.input_factors)
    n_out = len(entries[0].factors.output_factors)
    payload = {
        "config_json": collection.config.to_json(),
        "time_indices": collection.time_indices.astype(np.int64),
        "n_input_modes": np.int64(n_in),
        "n_output_modes": np.int64(n_out),
    }
    for l in range(n_in):
        payload[f"input_factor_{l}"] = np.stack(
            [e.factors.input_factors[l] for e in entries]
        )
    for m in range(n_out):
        payload[f"output_factor_{m}"] = np.stack(
            [e.factors.output_factors[m] for e in entries]
        )
    save_archive(path, "collection", payload)


def load_collection(path) -> CoefficientCollection:
    """Load a collection written by :func:`save_collection`."""
    data = load_archive(path, "collection")
    config = PipelineConfig.from_json(str(data["config_json"][()]))
    ins = [data[f"input_factor_{l}"] for l in range(int(data["n_input_modes"]))]
    outs = [data[f"output_factor_{m}"] for m in range(int(data["n_output_modes"]))]
    entries = tuple(
        CollectionEntry(
            time_index=int(t),
            factors=CpFactors(
                tuple(mode[i].copy() for mode in ins),
                tuple(mode[i].copy() for mode in outs),
            ),
        )
        for i, t in enumerate(data["time_indices"])
    )
    return CoefficientCollection(config=config, entries=entries)
