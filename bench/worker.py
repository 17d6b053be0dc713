"""Runs one workload as a closed loop in a process of its own.

Usage: python3 worker.py JOB.json RESULT.json, from the directory holding
the job's input paths. The job names the workload, its input files and the
phases to run; each phase is (traced, seconds, min_images). Images are taken
in cycle order and each starts only after the previous ``run_batch`` call
returned. After every call the artifacts are hashed and deleted, outside the
timed span, and the reference kernel of ``calibrate.py`` runs until it has
taken its share of the phase's time. The result file holds per-image records, the per-layer rows of
traced phases and the process's peak RSS. Nothing else runs in this process,
so its peak RSS is the workload's. A job with no phases only imports the
program and warms up: that is one set-up round.
"""

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from hashlib import sha256
from pathlib import Path

from mammocad.pipeline import BatchError, PipelineConfig, run_batch

import calibrate
from tracing import Tracer, instrument
from workloads import ARTIFACT_SUFFIX, WORKLOADS

OUT = Path("out")


def digest_outputs(stem):
    """{artifact suffix: sha256} of every file written for ``stem``; deletes them.

    The report is hashed with its ``timings`` key removed, re-serialized the
    way ``report_json`` writes it.
    """
    digests = {}
    for path in sorted(OUT.glob(f"{stem}_*")):
        data = path.read_bytes()
        if path.name.endswith(ARTIFACT_SUFFIX["report"]):
            report = json.loads(data)
            report.pop("timings", None)
            data = (json.dumps(report, indent=2) + "\n").encode("utf-8")
        digests[path.name[len(stem) :]] = sha256(data).hexdigest()
        path.unlink()
    return digests


def run_image(path, cfg, expected, tracer, image_id, origin=0.0):
    stem = Path(path).stem
    cpu = time.process_time()
    if tracer:
        tracer.begin(image_id)
    start = time.perf_counter()
    try:
        [result] = run_batch([path], cfg)
        error = result.error if isinstance(result, BatchError) else None
    except Exception:  # an exception escaping run_batch fails this image only
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end()
    cpu = time.process_time() - cpu
    artifacts = digest_outputs(stem)
    if error is None and set(artifacts) != expected:
        error = f"artifacts {sorted(artifacts)}, expected {sorted(expected)}"
    if error:
        print(f"{path}: {error}", file=sys.stderr)
    return {
        "image": stem,
        "id": image_id,
        "error": error,
        "at": start - origin + elapsed / 2,
        "latency_ms": elapsed * 1000.0,
        "cpu_ms": cpu * 1000.0,
        "artifacts": artifacts,
    }


def run_phase(images, cfg, expected, seconds, min_images, tracer=None):
    """Returns the phase's image records and its reference samples.

    A reference sample is (time, wall ms, CPU ms); times are seconds from
    the phase's start, an image's the middle of its call.
    """
    records, refs = [], []
    start = time.perf_counter()
    spent = 0.0
    while len(records) < min_images or time.perf_counter() - start < seconds:
        path = images[len(records) % len(images)]
        image_id = f"{len(records)}:{Path(path).stem}"
        records.append(run_image(path, cfg, expected, tracer, image_id, start))
        while len(refs) < 2 * calibrate.WINDOW or spent < calibrate.SHARE * (
            time.perf_counter() - start
        ):
            at = time.perf_counter() - start
            wall, cpu = calibrate.reference()
            refs.append((at + wall / 2000.0, wall, cpu))
            spent += wall / 1000.0
    return records, refs


def main(job_path, result_path):
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[job["workload"]]
    cfg = PipelineConfig(output_dir=OUT, **workload.config)
    expected = {ARTIFACT_SUFFIX[a] for a in cfg.emit}

    if run_image(job["warm"], cfg, expected, None, "warm")["error"]:
        return 1
    if job["phases"]:
        for _ in range(calibrate.WINDOW):
            calibrate.reference()

    phases = []
    for traced, seconds, min_images in job["phases"]:
        tracer = Tracer() if traced else None
        with instrument(tracer) if traced else nullcontext():
            records, refs = run_phase(
                job["images"], cfg, expected, seconds, min_images, tracer
            )
        if traced:
            rows = tracer.per_image()
            for record in records:
                record["layers"] = rows[record["id"]]
            Path(job["trace_file"]).write_text(json.dumps(tracer.spans_json()), encoding="utf-8")
        phases.append({"traced": traced, "records": records, "refs": refs})

    result = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "phases": phases,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
