"""Record golden fingerprints for the benchmark's workloads.

Usage, from the root of a source checkout:

    python3 bench/record_golden.py 1 2 3 [--workload screen ...]

Runs every input image of each workload and seed once, traced, and stores
the sha256 of each artifact (the report without ``timings``) and the
image's counts in golden.json. Entries for other seeds are kept. Record
only from a commit whose outputs are known good; a later change that moves
a fingerprint must say why.
"""

import argparse
import json
import sys
import time

from run import GOLDEN, check, run_workload, source_root


def dump(golden):
    """golden.json text: one line per workload and seed."""
    blocks = []
    for name in sorted(golden):
        seeds = sorted(golden[name], key=int)
        lines = [f"    {json.dumps(s)}: {json.dumps(golden[name][s], sort_keys=True)}" for s in seeds]
        blocks.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n  }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(source_root()))
    from workloads import WORKLOADS

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in args.workload or list(WORKLOADS):
        for seed in args.seeds:
            deadline = time.monotonic() + 600.0
            tag = f"record-{name}-seed{seed}"
            _, result = run_workload(name, seed, [(True, 0.0, None)], tag, deadline, 1)
            problems, fingerprints = check(result["phases"], {})
            if problems:
                sys.exit(f"{name} seed {seed}: " + "; ".join(problems))
            golden.setdefault(name, {})[str(seed)] = fingerprints
            GOLDEN.write_text(dump(golden), encoding="utf-8")
            print(f"{name} seed {seed}: {len(fingerprints)} images", flush=True)


if __name__ == "__main__":
    main()
