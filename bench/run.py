"""mammocad benchmark: seeded PGM inputs through ``run_batch``, end to end.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload screen --seed 1 --seconds 35 --trace 0

Set-up generates the workload's inputs from ``--seed`` into
``.bench_build/mammocad/`` and warms up a fresh worker process; it runs five
times and the median counts. A last worker (``worker.py``) warms up again
and runs the images as a closed loop, one ``run_batch([path], cfg)`` call at
a time, for ``--seconds``, with the reference kernel of ``calibrate.py``
between calls. Times in the result are at the reference's speed: each call's
time is divided by the reference's time measured around it. Every image's artifacts are fingerprinted and
checked against ``golden.json`` when the seed has an entry there, and
against the image's other runs always.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits the time
into an untraced half and a traced half and prints the per-layer metrics and
the tracing overhead; it also checks that both halves give the same
fingerprints and that each image's layer times add up to its ``run_batch``
span. The first line of stdout holds every input and output fingerprint, so
runs on a seed without a golden entry can be compared; a summary line with
the times as measured follows, then one line per failed check, and last the JSON result.
README.md in this directory says what each metric is and what moves it.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK = Path(".bench_build") / "mammocad"
SETUP_ROUNDS = 5
DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def source_root() -> Path:
    """The checkout's ``src`` directory; exits non-zero when mammocad is absent."""
    src = Path.cwd() / "src"
    if not (src / "mammocad" / "__init__.py").is_file():
        sys.exit(f"error: no mammocad package under {src}; run from a mammocad checkout")
    return src.resolve()


def run_worker(work, job, deadline):
    """Run ``worker.py`` on ``job`` in ``work`` and return its result."""
    (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(source_root()), str(HERE)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "job.json", "result.json"],
            cwd=work,
            env=env,
            stdout=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit("error: worker did not finish before the deadline")
    if proc.returncode != 0:
        sys.exit(f"error: worker exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def run_workload(name, seed, phases, tag, deadline, setup_rounds=SETUP_ROUNDS):
    """Set up ``setup_rounds`` times, then run; returns (median set-up s, result).

    One set-up round generates and writes the inputs, then starts a worker
    that only imports the program and warms up. ``phases`` is a list of
    (traced, seconds, min_images); a min_images of None runs every image
    once. Spans of a traced phase are written to
    ``.bench_build/mammocad/<tag>-spans.json``.
    """
    from workloads import WORKLOADS, write_inputs

    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    times = []
    for _ in range(setup_rounds):
        start = time.perf_counter()
        warm, *images = write_inputs(WORKLOADS[name], seed, work / "in")
        job = {
            "workload": name,
            "warm": str(warm.relative_to(work)),
            "images": [str(p.relative_to(work)) for p in images],
            "phases": [],
            "trace_file": str(Path("..") / f"{tag}-spans.json"),
        }
        run_worker(work, job, deadline)
        times.append(time.perf_counter() - start)
    job["phases"] = [(t, s, len(images) if n is None else n) for t, s, n in phases]
    result = run_worker(work, job, deadline)
    result["inputs"] = {p.stem: sha256(p.read_bytes()).hexdigest() for p in images}
    shutil.rmtree(work)
    return statistics.median(times), result


def check(phases, golden):
    """Set each failed record's ``error``; returns (problems, fingerprints).

    A record fails on a pipeline error, or on artifacts that differ from
    ``golden`` or, for an image without a golden entry, from its first run.
    A traced record also fails on counts that differ the same way. A traced
    record whose layer times do not add up to its ``run_batch`` span is a
    problem of the run, as is a traced half that shares no image with the
    untraced half.
    """
    from tracing import COUNT_NAMES

    fingerprints = {stem: dict(entry) for stem, entry in golden.items()}
    problems = []
    for phase in phases:
        for r in phase["records"]:
            if golden and r["image"] not in golden:
                r["error"] = r["error"] or "image missing from golden.json"
            ref = fingerprints.setdefault(r["image"], {"artifacts": r["artifacts"]})
            if r["error"] is None and r["artifacts"] != ref["artifacts"]:
                r["error"] = f"artifacts {r['artifacts']} != {ref['artifacts']}"
            if phase["traced"]:
                layers = r["layers"]
                counts = {k: layers[k] for k in COUNT_NAMES}
                if r["error"] is None and ref.setdefault("counts", counts) != counts:
                    r["error"] = f"counts {counts} != {ref['counts']}"
                if abs(layers["unaccounted_ms"]) > 1e-6 * max(1.0, layers["total_ms"]):
                    problems.append(
                        f"{r['id']}: layer times miss the run_batch span by "
                        f"{layers['unaccounted_ms']} ms"
                    )
            if r["error"]:
                problems.append(f"{r['id']}: {r['error'].strip().splitlines()[-1]}")
    if len(phases) == 2:
        untraced, traced = ({r["image"] for r in p["records"]} for p in phases)
        if not untraced & traced:
            problems.append("no image ran in both the untraced and the traced half")
    return problems, fingerprints


def best_runs(records):
    """{image: (fastest latency ms, least CPU ms)} over the image's runs, as measured."""
    best = {}
    for r in records:
        latency, cpu = best.get(r["image"], (math.inf, math.inf))
        best[r["image"]] = (min(latency, r["latency_ms"]), min(cpu, r["cpu_ms"]))
    return best


def normalized_runs(phase):
    """{image: (latency, CPU time)} in ms at the reference speed; see calibrate.py.

    Each call's wall and CPU time are divided by the reference kernel's,
    measured around the call, and scaled to the kernel's nominal time; an
    image's figure is the median over its calls.
    """
    from calibrate import NOMINAL_MS, local_speed

    refs = sorted(map(tuple, phase["refs"]))
    runs = {}
    for r in phase["records"]:
        ref_wall, ref_cpu = local_speed(refs, r["at"])
        runs.setdefault(r["image"], []).append(
            (r["latency_ms"] * NOMINAL_MS / ref_wall, r["cpu_ms"] * NOMINAL_MS / ref_cpu)
        )
    return {
        image: (statistics.median(l for l, _ in calls), statistics.median(c for _, c in calls))
        for image, calls in runs.items()
    }


def end_to_end(setup_s, result, phase):
    """The end-to-end metrics of an untraced phase, as (value, unit)."""
    latency, cpu = zip(*normalized_runs(phase).values())
    return {
        "setup_s": (setup_s, "s"),
        "images_per_s": (len(latency) * 1000.0 / sum(latency), "1/s"),
        "latency_p50_ms": (statistics.median(latency), "ms"),
        "cpu_ms_per_image": (statistics.mean(cpu), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(untraced, traced):
    """The per-layer metrics of a traced phase, plus the tracing overhead."""
    from tracing import LAYER_UNITS, layer_metrics

    values = layer_metrics([r["layers"] for r in traced["records"]])
    values["trace.overhead_ms"] = statistics.median(
        latency for latency, _ in normalized_runs(traced).values()
    ) - statistics.median(latency for latency, _ in normalized_runs(untraced).values())
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(source_root()))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.trace:
        phases = [(False, args.seconds / 2, 1), (True, args.seconds / 2, 1)]
    else:
        phases = [(False, args.seconds, 1)]
    tag = f"{args.workload}-seed{args.seed}"
    setup_s, result = run_workload(args.workload, args.seed, phases, tag, deadline)

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    golden = golden.get(args.workload, {}).get(str(args.seed))
    problems, fingerprints = check(result["phases"], golden or {})
    records = [r for p in result["phases"] for r in p["records"]]
    failed = sum(r["error"] is not None for r in records)
    untraced = result["phases"][0]
    if args.trace:
        metrics = per_layer(untraced, result["phases"][1])
    else:
        metrics = end_to_end(setup_s, result, untraced)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "golden": golden is not None,
        "inputs": result["inputs"],
        "fingerprints": fingerprints,
    }, sort_keys=True))
    latency = [r["latency_ms"] for r in untraced["records"]]
    best = [b for b, _ in best_runs(untraced["records"]).values()]
    ref_wall = [w for _, w, _ in untraced["refs"]]
    summary = [
        f"images={len(records)}",
        f"failed_frac={failed / len(records):.4f}",
        f"all_calls_p50_ms={statistics.median(latency):.3f} (n={len(latency)})",
        f"best_p50_ms={statistics.median(best):.3f}",
        f"reference_p50_ms={statistics.median(ref_wall):.3f} (n={len(ref_wall)})",
    ]
    if len(latency) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(latency, n=10)[-1]
        summary.append(f"all_calls_p90_ms={p90:.3f}")
    summary += [f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    print(" ".join(summary))
    for problem in problems:
        print(f"FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
