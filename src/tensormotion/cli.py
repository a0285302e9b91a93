"""Command-line front end.

Subcommands cover the full workflow: ``synth`` generates test motion,
``prep`` turns a capture into a reference cycle, ``build`` trains the
model bank, ``predict`` replays a capture through the online loop,
``uncertainty`` attaches bands, ``report`` renders summary and
plot-ready CSVs, and ``sweep`` trains preset hyperparameter grids.

Exit codes: 0 success, 1 usage error, 2 malformed or inconsistent input
data, 3 numerical failure. Every command that writes outputs also
writes ``<output>.manifest.json`` recording parameters, input and
output digests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from tensormotion import __version__
from tensormotion.cycles import (
    build_reference,
    detect_cycles,
    extend_reference,
    smooth_signal,
)
from tensormotion.evaluation import (
    SUMMARY_FIELDS,
    SeeSeries,
    evaluate_predictions,
    hold_pose_predictions,
    pick_latest,
)
from tensormotion.io import (
    DataFormatError,
    export_csv,
    ingest_csv,
    load_archive,
    load_reference,
    save_archive,
    save_reference,
    write_manifest,
)
from tensormotion.kinematics import (
    MotionSequence,
    Skeleton,
    default_skeleton,
    fix_segment_lengths,
    to_joint_angles,
)
from tensormotion.predictor import (
    PipelineConfig,
    build_collection,
    load_collection,
    run_online,
    save_collection,
)
from tensormotion.regression import (
    RegressionConfig,
    predict as model_predict,
)
from tensormotion.synth import SynthConfig, generate_motion
from tensormotion.uncertainty import (
    BAND_LEVELS,
    band_to_coordinates,
    predictive_variation,
)

__all__ = ["main"]

AXES = "xyz"

RANK_PRESET = {"ranks": (11, 12, 13, 14, 15), "penalty": 50.0}
PENALTY_PRESET = {
    "penalties": (0.1, 0.6, 1.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0),
    "rank": 13,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_channel(text: str) -> tuple[str, int]:
    joint, sep, axis = text.partition(":")
    if not sep or not joint or axis not in AXES:
        raise UsageError(
            f"channel must look like joint:axis with axis in {AXES}, got {text!r}"
        )
    return joint, AXES.index(axis)


def _parse_selection(text: str | None, count: int) -> list[int]:
    if text is None:
        return list(range(count))
    text = text.strip()
    try:
        if ":" in text:
            start_s, _, end_s = text.partition(":")
            start = int(start_s) if start_s else 0
            end = int(end_s) if end_s else count
            picked = list(range(*slice(start, end).indices(count)))
        else:
            picked = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse cycle selection {text!r}") from None
    for i in picked:
        if not 0 <= i < count:
            raise ValueError(
                f"cycle selection index {i} out of range (detected {count})"
            )
    if not picked:
        raise ValueError("cycle selection is empty")
    return picked


def _slice_sequence(seq: MotionSequence, start: int, end: int) -> MotionSequence:
    return dataclasses.replace(
        seq, frames=seq.frames[start:end], root_track=seq.root_track[start:end]
    )


def _reorder_to_skeleton(seq: MotionSequence, skeleton: Skeleton) -> MotionSequence:
    missing = [j for j in skeleton.joints if j not in seq.joint_names]
    if missing:
        raise DataFormatError(f"data lacks skeleton joints {missing}")
    if seq.joint_names == skeleton.joints:
        return seq
    order = [seq.joint_names.index(j) for j in skeleton.joints]
    return dataclasses.replace(
        seq, frames=seq.frames[:, order], joint_names=skeleton.joints
    )


def _load_skeleton(path: str | None) -> Skeleton:
    return Skeleton.from_file(path) if path else default_skeleton()


def _manifest(args, command: str, inputs: dict, outputs: dict) -> None:
    params = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        params[key] = str(value) if isinstance(value, Path) else value
    inputs = {label: path for label, path in inputs.items() if path}
    primary = next(iter(outputs.values()))
    write_manifest(
        str(primary) + ".manifest.json",
        {
            "command": command,
            "version": __version__,
            "created": datetime.now(timezone.utc).isoformat(),
            "parameters": params,
            "inputs": inputs,
            "outputs": outputs,
        },
    )


def _cmd_synth(args) -> int:
    skeleton = _load_skeleton(args.skeleton)
    config = SynthConfig(
        cycle_count=args.cycles,
        base_period_frames=args.period_frames,
        frame_rate=args.frame_rate,
        period_jitter_fraction=args.period_jitter,
        length_jitter_fraction=args.length_jitter,
        noise_std_cm=args.noise_cm,
        seed=args.seed,
        skeleton=skeleton,
    )
    seq, ranges = generate_motion(config)
    export_csv(seq, args.out)
    outputs = {"data": args.out}
    if args.boundaries_out:
        Path(args.boundaries_out).write_text(
            json.dumps({"cycles": ranges}, indent=2) + "\n"
        )
        outputs["boundaries"] = args.boundaries_out
    _manifest(args, "synth", {"skeleton": args.skeleton}, outputs)
    print(
        f"wrote {seq.n_frames} frames ({seq.duration:.2f} s, "
        f"{config.cycle_count} cycles) to {args.out}"
    )
    return 0


def _cmd_prep(args) -> int:
    seq = ingest_csv(args.data, frame_rate=args.frame_rate)
    skeleton = _load_skeleton(args.skeleton)
    seq = _reorder_to_skeleton(seq, skeleton)
    fixed = fix_segment_lengths(seq, skeleton)
    angles, _ = to_joint_angles(seq, fixed)

    joint, axis = _parse_channel(args.channel)
    if joint not in fixed.non_root_joints:
        raise ValueError(
            f"segmentation channel joint {joint!r} is not a non-root joint"
        )
    seg = fixed.non_root_joints.index(joint)
    signal = smooth_signal(angles.frames[:, seg, axis], args.cutoff)
    ranges = detect_cycles(
        signal,
        args.peaks_per_cycle,
        threshold=args.threshold,
        min_peak_distance=args.min_peak_distance,
    )
    picked = _parse_selection(args.select, len(ranges))
    cycles = [_slice_sequence(angles, *ranges[i]) for i in picked]
    ref = build_reference(cycles, target_frames=args.target_frames)

    skeleton_out = args.skeleton_out or str(
        Path(args.out).with_name(Path(args.out).stem + "_skeleton.json")
    )
    fixed.to_file(skeleton_out)
    save_reference(ref, args.out)
    _manifest(
        args,
        "prep",
        {"data": args.data},
        {"reference": args.out, "skeleton": skeleton_out},
    )
    lengths = [e - s for s, e in ranges]
    print(
        f"detected {len(ranges)} cycles (lengths {min(lengths)}..{max(lengths)} "
        f"frames), kept {len(picked)}, reference length {ref.length_frames} frames"
    )
    return 0


def _config(args, frame_rate, rank, penalty, update_stride=None) -> PipelineConfig:
    """The config of ``build`` and of each ``sweep`` job; the update
    stride defaults to the horizon."""
    if update_stride is None:
        update_stride = max(1, int(round(args.future * frame_rate)))
    return PipelineConfig(
        past_seconds=args.past,
        future_seconds=args.future,
        frame_rate=frame_rate,
        model_stride_frames=args.model_stride,
        update_stride_frames=update_stride,
        regression=RegressionConfig(
            rank=rank,
            penalty=penalty,
            max_sweeps=args.max_sweeps,
            tolerance=args.tolerance,
            seed=args.seed,
        ),
    )


def _train(ref, config: PipelineConfig, out_path) -> tuple[int, float]:
    """Build, time and save one collection; returns its model count and
    the build's seconds."""
    start = time.perf_counter()
    collection = build_collection(ref, config)
    elapsed = time.perf_counter() - start
    save_collection(collection, out_path)
    return len(collection), elapsed


def _cmd_build(args) -> int:
    ref = load_reference(args.reference)
    config = _config(
        args, ref.angles.frame_rate, args.rank, args.penalty, args.update_stride
    )
    n_models, elapsed = _train(ref, config, args.out)
    _manifest(args, "build", {"reference": args.reference}, {"collection": args.out})
    print(
        f"trained {n_models} models (rank {args.rank}, penalty "
        f"{args.penalty:g}) in {elapsed:.1f} s"
    )
    return 0


def _parse_horizons(text: str) -> list[float]:
    try:
        horizons = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"cannot parse horizons {text!r}") from None
    if not horizons:
        raise UsageError("need at least one horizon")
    return horizons


def _cmd_predict(args) -> int:
    collection = load_collection(args.collection)
    config = collection.config
    if args.update_stride is not None:
        config = dataclasses.replace(
            config, update_stride_frames=args.update_stride
        )
        collection = dataclasses.replace(collection, config=config)
    horizons = _parse_horizons(args.horizons)
    steps = [int(round(horizon * config.frame_rate)) for horizon in horizons]
    for horizon, h_frames in zip(horizons, steps):
        if not 1 <= h_frames <= config.future_frames:
            raise ValueError(
                f"horizon {horizon:g} s is {h_frames} frames; the collection "
                f"predicts 1..{config.future_frames} frames ahead"
            )
    ref = load_reference(args.reference)
    skeleton = Skeleton.from_file(args.skeleton)
    truth = _reorder_to_skeleton(
        ingest_csv(args.data, frame_rate=args.frame_rate), skeleton
    )

    stream = iter(truth.frames)
    batches = list(
        run_online(stream, ref, collection, skeleton, root_policy=args.root_policy)
    )
    if not batches:
        raise ValueError(
            f"data ({truth.n_frames} frames) is shorter than the observation "
            f"window ({config.past_frames} frames); nothing to predict"
        )

    payload = {
        "config_json": config.to_json(),
        "joint_names": np.array(skeleton.joints),
        "segment_names": np.array(skeleton.non_root_joints),
        "stamps": np.array([b.last_observed_frame for b in batches], dtype=np.int64),
        "model_index": np.array([b.model_index for b in batches], dtype=np.int64),
        "gap_frames": np.array([b.gap_frames for b in batches], dtype=np.int64),
        "coordinates": np.stack([b.coordinates for b in batches]),
        "angles": np.stack([b.angles for b in batches]),
        "clamped": np.stack([b.clamped_entries for b in batches]),
        "horizons_s": np.array(horizons),
    }
    for i, (horizon, h_frames) in enumerate(zip(horizons, steps)):
        series = evaluate_predictions(batches, truth, h_frames)
        base = hold_pose_predictions(
            truth, [b.last_observed_frame for b in batches], h_frames
        )
        payload[f"see_{i}_frames"] = series.frame_indices
        payload[f"see_{i}_values"] = series.values
        payload[f"baseline_{i}_values"] = base.values
        stats = series.summary()
        base_stats = base.summary()
        print(
            f"horizon {horizon:.2f} s: median error "
            f"{stats['median']:.2f} cm over {series.values.size} frames "
            f"(hold-pose baseline {base_stats['median']:.2f} cm)"
        )
    save_archive(args.out, "predictions", payload)
    _manifest(
        args,
        "predict",
        {
            "collection": args.collection,
            "reference": args.reference,
            "skeleton": args.skeleton,
            "data": args.data,
        },
        {"predictions": args.out},
    )
    total_gaps = int(sum(b.gap_frames for b in batches))
    if total_gaps:
        print(f"stream gaps: {total_gaps} frames missing")
    return 0


def _cmd_uncertainty(args) -> int:
    collection = load_collection(args.collection)
    ref = load_reference(args.reference)
    config = collection.config
    picked = _parse_selection(args.models, len(collection.entries))
    collection = dataclasses.replace(
        collection, entries=tuple(collection.entries[i] for i in picked)
    )
    bands = predictive_variation(ref, collection)

    # center trajectories: each model applied to its clean training window
    ext = extend_reference(ref, config.past_frames)
    past, future = config.past_frames, config.future_frames
    centers = []
    for entry in collection.entries:
        window = ext.frames[entry.time_index - past + 1 : entry.time_index + 1]
        centers.append(
            np.clip(model_predict(window, entry.factors)[-future:], 0.0, np.pi)
        )
    centers = np.stack(centers)

    payload = {
        "config_json": config.to_json(),
        "model_rows": np.array(picked, dtype=np.int64),
        "time_indices": collection.time_indices,
        "segment_names": np.array(ref.angles.joint_names),
        "angle_std": np.stack([b.angle_std for b in bands]),
        "centers_angle": centers,
    }
    if args.skeleton:
        skeleton = Skeleton.from_file(args.skeleton)
        converted = [
            band_to_coordinates(
                band, center, skeleton, ext.root_track[t + 1 : t + 1 + future]
            )
            for t, band, center in zip(collection.time_indices, bands, centers)
        ]
        payload["coord_joint_names"] = np.array(skeleton.joints)
        for level in BAND_LEVELS:
            payload[f"coord_dev_{level}"] = np.stack(
                [c.coordinate_bands[level] for c in converted]
            )
            payload[f"sphere_{level}"] = np.stack(
                [c.sphere_radius(level, space="coordinate") for c in converted]
            )
    save_archive(args.out, "bands", payload)
    inputs = {
        "collection": args.collection,
        "reference": args.reference,
        "skeleton": args.skeleton,
    }
    _manifest(args, "uncertainty", inputs, {"bands": args.out})
    print(f"propagated bands for {len(collection.entries)} models")
    return 0


def _truth_channel(
    truth: MotionSequence,
    skeleton_path: str | None,
    space: str,
    joint: str,
    axis: int,
) -> np.ndarray:
    if space == "coordinate":
        if joint not in truth.joint_names:
            raise ValueError(f"unknown joint {joint!r}")
        return truth.frames[:, truth.joint_names.index(joint), axis]
    if not skeleton_path:
        raise UsageError("--space angle requires --skeleton")
    skeleton = Skeleton.from_file(skeleton_path)
    angles, _ = to_joint_angles(_reorder_to_skeleton(truth, skeleton), skeleton)
    if joint not in angles.joint_names:
        raise ValueError(f"joint {joint!r} has no angles (is it the root?)")
    return angles.frames[:, angles.joint_names.index(joint), axis]


def _cmd_report(args) -> int:
    pred = load_archive(args.predictions, "predictions")
    config = PipelineConfig.from_json(str(pred["config_json"][()]))
    truth = ingest_csv(args.truth, frame_rate=args.frame_rate)

    joint, axis = _parse_channel(args.channel)
    truth_channel = _truth_channel(truth, args.skeleton, args.space, joint, axis)
    h_frames = int(round(args.horizon * config.frame_rate))
    if not 1 <= h_frames <= config.future_frames:
        raise ValueError(
            f"plot horizon {args.horizon:g} s is outside the predicted range"
        )
    stamps = [int(s) for s in pred["stamps"]]
    picked = pick_latest(
        stamps, h_frames, truth.n_frames, max_offset=config.future_frames
    )

    if args.space == "coordinate":
        names = [str(n) for n in pred["joint_names"]]
        source = pred["coordinates"]
    else:
        names = [str(n) for n in pred["segment_names"]]
        source = pred["angles"]
    if joint not in names:
        raise ValueError(f"joint {joint!r} not present in the predictions")
    channel_col = names.index(joint)

    band_rows = {}  # model index -> row of the bands archive
    if args.bands:
        bands = load_archive(args.bands, "bands")
        if args.space == "coordinate" and "coord_dev_1" not in bands:
            raise ValueError(
                "bands file has no coordinate bands; rerun the uncertainty "
                "command with --skeleton"
            )
        band_rows = {int(r): i for i, r in enumerate(bands["model_rows"])}

    # every input is read and checked before the first file is written
    lines = ["horizon_s,series," + ",".join(SUMMARY_FIELDS)]
    for i, horizon in enumerate(float(h) for h in pred["horizons_s"]):
        for series_name, key in (
            ("prediction", f"see_{i}_values"),
            ("baseline", f"baseline_{i}_values"),
        ):
            stats = SeeSeries(pred[key]).summary()
            lines.append(
                f"{horizon:g},{series_name},"
                + ",".join(f"{stats[f]:.4f}" for f in SUMMARY_FIELDS)
            )

    rows = ["frame,truth,prediction,lo1,hi1,lo2,hi2,lo3,hi3"]
    for frame in sorted(picked):
        row_idx, offset = picked[frame]
        value = source[row_idx, offset - 1, channel_col, axis]
        cells = [str(frame), repr(float(truth_channel[frame])), repr(float(value))]
        b = band_rows.get(int(pred["model_index"][row_idx]))
        if b is None:
            cells += [""] * 6
        else:
            for level in BAND_LEVELS:
                if args.space == "angle":
                    half = level * bands["angle_std"][b, offset - 1, channel_col, axis]
                else:
                    half = bands[f"coord_dev_{level}"][
                        b, offset - 1, channel_col, axis
                    ]
                cells += [repr(float(value - half)), repr(float(value + half))]
        rows.append(",".join(cells))

    summary_path = Path(f"{args.out_prefix}summary.csv")
    plot_path = Path(f"{args.out_prefix}plot.csv")
    summary_path.write_text("\n".join(lines) + "\n")
    plot_path.write_text("\n".join(rows) + "\n")
    inputs = {
        "predictions": args.predictions,
        "truth": args.truth,
        "bands": args.bands,
        "skeleton": args.skeleton,
    }
    _manifest(
        args, "report", inputs, {"summary": summary_path, "plot": plot_path}
    )
    print(f"wrote {summary_path} and {plot_path} ({len(rows) - 1} plot rows)")
    return 0


def _sweep_job(args, rank, penalty, out_path):
    """One grid point of ``sweep``, at module level so that worker
    processes can run it."""
    ref = load_reference(args.reference)
    config = _config(args, ref.angles.frame_rate, rank, penalty)
    return (out_path, *_train(ref, config, out_path))


def _cmd_sweep(args) -> int:
    load_reference(args.reference)  # fail before creating the output directory
    if args.preset == "rank":
        grid = [(r, RANK_PRESET["penalty"]) for r in RANK_PRESET["ranks"]]
    else:
        grid = [(PENALTY_PRESET["rank"], p) for p in PENALTY_PRESET["penalties"]]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (args, rank, penalty, str(out_dir / f"coll_rank{rank}_penalty{penalty:g}.npz"))
        for rank, penalty in grid
    ]

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_job, *zip(*jobs)))
    else:
        results = [_sweep_job(*job) for job in jobs]

    outputs = {}
    for (rank, penalty), (out_path, n_models, elapsed) in zip(grid, results):
        print(
            f"rank {rank:2d} penalty {penalty:7g}: {n_models} models "
            f"in {elapsed:6.1f} s -> {out_path}"
        )
        outputs[f"rank{rank}_penalty{penalty:g}"] = out_path
    _manifest(args, "sweep", {"reference": args.reference}, outputs)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tensormotion",
        description="Train, run and evaluate cyclic-motion predictors.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic repetitive motion")
    p.add_argument("--out", required=True, help="output capture CSV")
    p.add_argument("--boundaries-out", help="write true cycle ranges as JSON")
    p.add_argument("--skeleton", help="skeleton JSON (default: built-in)")
    p.add_argument("--cycles", type=int, default=8)
    p.add_argument("--period-frames", type=int, default=600)
    p.add_argument("--frame-rate", type=float, default=60.0)
    p.add_argument("--period-jitter", type=float, default=0.0)
    p.add_argument("--length-jitter", type=float, default=0.0)
    p.add_argument("--noise-cm", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("prep", help="build a reference cycle from a capture")
    p.add_argument("--data", required=True, help="capture CSV")
    p.add_argument("--out", required=True, help="output reference .npz")
    p.add_argument("--skeleton", help="skeleton JSON (default: built-in)")
    p.add_argument(
        "--skeleton-out", help="where to write the length-fixed skeleton JSON"
    )
    p.add_argument(
        "--channel",
        default="spine:z",
        help="segmentation channel, joint:axis (default spine:z)",
    )
    p.add_argument("--peaks-per-cycle", type=int, default=1)
    p.add_argument("--cutoff", type=float, default=0.05)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--min-peak-distance", type=int, default=None)
    p.add_argument(
        "--select", help="cycles to keep: comma list '0,2,4' or slice '1:7'"
    )
    p.add_argument("--target-frames", type=int, default=None)
    p.add_argument("--frame-rate", type=float, default=None)
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("build", help="train the model bank along a reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True, help="output collection .npz")
    p.add_argument("--rank", type=int, default=13)
    p.add_argument("--penalty", type=float, default=50.0)
    p.add_argument("--past", type=float, default=4.0, help="window seconds")
    p.add_argument("--future", type=float, default=1.0, help="horizon seconds")
    p.add_argument("--model-stride", type=int, default=2)
    p.add_argument(
        "--update-stride",
        type=int,
        default=None,
        help="frames between online updates (default: the horizon)",
    )
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("predict", help="replay a capture through the online loop")
    p.add_argument("--collection", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--skeleton", required=True)
    p.add_argument("--data", required=True, help="capture CSV to replay")
    p.add_argument("--out", required=True, help="output predictions .npz")
    p.add_argument("--horizons", default="1.0", help="comma list of seconds")
    p.add_argument("--update-stride", type=int, default=None)
    p.add_argument("--root-policy", choices=("hold", "linear"), default="hold")
    p.add_argument("--frame-rate", type=float, default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("uncertainty", help="estimate per-model bands")
    p.add_argument("--collection", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True, help="output bands .npz")
    p.add_argument(
        "--skeleton", help="skeleton JSON; adds coordinate-space bands"
    )
    p.add_argument(
        "--models", help="model rows to keep: comma list or slice (default all)"
    )
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("report", help="summary table and plot-ready CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True, help="capture CSV the run replayed")
    p.add_argument("--bands", help="bands .npz from the uncertainty command")
    p.add_argument("--skeleton", help="needed for --space angle")
    p.add_argument("--channel", default="hand_r:z", help="joint:axis to plot")
    p.add_argument("--space", choices=("angle", "coordinate"), default="angle")
    p.add_argument("--horizon", type=float, default=1.0, help="plot horizon, s")
    p.add_argument("--out-prefix", default="report_")
    p.add_argument("--frame-rate", type=float, default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sweep", help="train a preset hyperparameter grid")
    p.add_argument("--reference", required=True)
    p.add_argument("--preset", choices=("rank", "penalty"), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--past", type=float, default=4.0)
    p.add_argument("--future", type=float, default=1.0)
    p.add_argument("--model-stride", type=int, default=2)
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        # a singular fit raises SingularSystemError, a LinAlgError
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
