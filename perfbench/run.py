"""Benchmark entry point: generate a workload's inputs, run the program on them, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload track2d_crowd --seed 1 --seconds 25 --trace 0

Inputs come from ``gen.py`` and the seed alone and are written under
``.bench_work/<workload>/``. The program runs in ``worker.py`` processes with
BLAS/OpenMP pinned to one thread: a few set-up probes (``setup_s`` is their
median, scaled by import probes to reference host speed) and one measuring
process, whose times ``calibration.py`` scales the same way. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``); the lines before it print every metric by name
with its unit, the workload's input properties and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TIME_LIMIT_S = 170.0


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(work: str, name: str, text: str) -> str:
    with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _head(text: str, frames: int) -> str:
    return "".join(line + "\n" for line in text.splitlines()
                   if int(line.split(",", 1)[0]) <= frames)


def _scene(work: str, prefix: str, seed: int, params: dict, defaults: dict):
    mode = params["mode"]
    full = {**defaults[mode], **params}
    make = gen.scene_2d if mode == "2d" else gen.scene_3d
    gt, det, props = make(seed, full)
    entry = {"mode": mode, "gt": _write(work, f"{prefix}_gt.txt", gt),
             "det": _write(work, f"{prefix}_det.txt", det)}
    return entry, det, props


def _suite(work: str, prefix: str, seed: int, sequences: list, defaults: dict):
    entries, props, texts = [], {}, []
    for seq in sequences:
        params = {**defaults[seq["mode"]], **seq}
        gt, pred, seq_props = gen.eval_sequence(seed, seq["name"], params)
        name = f"{prefix}_{seq['name']}"
        entries.append({"name": seq["name"], "mode": seq["mode"],
                        "gt": _write(work, f"{name}_gt.txt", gt),
                        "pred": _write(work, f"{name}_pred.txt", pred)})
        props[seq["name"]] = seq_props
        texts.append((gt, pred))
    continuous = sum(p["pred_records"] for p in props.values() if not p["rounded"])
    total = sum(p["pred_records"] for p in props.values())
    return entries, props, texts, continuous / total


def build_inputs(work: str, workload: str, seed: int, tiny: bool,
                 config: dict) -> tuple[dict, dict]:
    """Write every input file of one run into ``work``; return (spec, input properties)."""
    spec_w = config["workloads"][workload]
    probe = config["probe"]
    scenes, seqs = config["scene_defaults"], config["sequence_defaults"]
    mode = spec_w["scene"]["mode"]
    scene_params = probe[f"scene_{mode}"] if tiny else spec_w["scene"]
    suite_name = probe["suite"] if tiny else spec_w["suite"]

    scene, det_text, scene_props = _scene(work, "scene", seed, scene_params, scenes)
    suite, suite_props, suite_texts, continuous = _suite(
        work, "suite", seed, config["suites"][suite_name], seqs)
    run = config["run"]
    warm_gt, warm_pred = suite_texts[0]
    warmup = {"det": _write(work, "warmup_det.txt", _head(det_text, run["warmup_frames"])),
              "mode": suite[0]["mode"],
              "gt": _write(work, "warmup_gt.txt", _head(warm_gt, run["warmup_eval_frames"])),
              "pred": _write(work, "warmup_pred.txt", _head(warm_pred, run["warmup_eval_frames"]))}

    probe_seed = config["probe_seed"]
    probe_spec = {
        "scene_2d": _scene(work, "probe2d", probe_seed, probe["scene_2d"], scenes)[0],
        "scene_3d": _scene(work, "probe3d", probe_seed, probe["scene_3d"], scenes)[0],
        "suite": _suite(work, "probe", probe_seed, config["suites"][probe["suite"]], seqs)[0],
    }
    spec = {
        "scene": scene,
        "suite": suite,
        "warmup": warmup,
        "probe": probe_spec,
        "track_share": spec_w["track_share"],
        "min_rounds": run["min_rounds"],
        "min_passes": run["min_passes"],
        "calibration_reference_s": run["calibration_reference_s"],
    }
    props = {"scene": scene_props, "suite": suite_props,
             "continuous_score_share": continuous}
    return spec, props


def _machine(root: str, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and os.path.samefile(lines[0], root) else None
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "git_sha": sha,
            "threads": {k: env[k] for k in THREAD_ENV}}


def _worker(work: str, env: dict, extra: list, timeout: float) -> str:
    """Run worker.py to completion and return its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), work, *extra]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker {extra} did not finish within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise RuntimeError(f"worker {extra} failed:\n{done.stderr}")
    return done.stdout


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    config = _load(os.path.join(HERE, "workloads.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="probe-sized inputs, for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the program in ./src")
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "motrack", "__init__.py")):
        return _fail(f"no program to measure: {src}/motrack is missing")
    bench = _load(os.path.join(root, "BENCHMARK.json"))

    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec, props = build_inputs(work, args.workload, args.seed, args.tiny, config)
    spec.update(src=src, seconds=args.seconds, trace=args.trace,
                reference=os.path.join(HERE, "reference.json"))
    with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    env = {**os.environ, "PYTHONPATH": src, **{k: "1" for k in THREAD_ENV}}
    try:
        if args.record_reference:
            _worker(work, env, ["--record-reference"], TIME_LIMIT_S)
            shutil.copyfile(os.path.join(work, "reference.json"), spec["reference"])
            print(f"wrote {spec['reference']}")
            return 0
        setup, imports = [], []
        for probe in range(config["run"]["setup_probes"] + 1):
            imports.append(json.loads(_worker(work, env, ["--import-only"], 60.0))["import_s"])
            if probe < config["run"]["setup_probes"]:
                setup.append(json.loads(_worker(work, env, ["--setup-only"], 60.0))["setup_s"])
        _worker(work, env, [], TIME_LIMIT_S - (time.monotonic() - started))
    except RuntimeError as exc:
        return _fail(str(exc))
    result = _load(os.path.join(work, "result.json"))
    setup.append(result["setup_s"])
    # Each set-up is scaled to the reference host speed by the import time of
    # numpy and scipy alone in a fresh process just before it, as the run's
    # other times are by calibration.py.
    result["setup_s"] = statistics.median(
        total / imported for total, imported in zip(setup, imports)
    ) * config["run"]["import_reference_s"]
    if "per_layer" in result:
        props["traced"] = {k: result["per_layer"][k] for k in (
            "association.lost_per_frame", "geometry.cross_class_pair_share",
            "geometry.useful_pair_ratio", "geometry.similarity.step_share")}

    group = "per_layer" if args.trace else "end_to_end"
    values = result["per_layer"] if args.trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[group]}
    error_rate = result["failed"] / result["attempted"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": {**_machine(root, env), **result["versions"]},
        "samples": {k: result[k] for k in (
            "step_samples", "track_rounds", "eval_passes", "calibration_samples")},
        "round_s": result["round_s"],
        "host_factors": result["host_factors"],
        "setup_probes_s": setup,
        "import_probes_s": imports,
        "error_rate": error_rate, "failures": result["failures"],
        "absent_layers": result.get("absent_layers", []),
        "properties": props, "metrics": metrics,
    }
    with open(os.path.join(work, "run_record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {json.dumps(record['samples'])}")
    print(f"machine {json.dumps(record['machine'])}")
    print(f"properties {json.dumps(props)}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':<{width}}  {error_rate:.6g} fraction")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
