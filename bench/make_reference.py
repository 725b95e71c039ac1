"""Regenerate reference.json: the gated answers of every workload variant.

    python3 bench/make_reference.py

Run only on a commit whose answers are known good; the gate then holds
every later commit to these answers within workloads.RTOL.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    sys.path.insert(0, run.SRC)
    import workloads

    ref = {}
    for size, flag in (("full", []), ("tiny", ["--tiny"])):
        ref[size] = {}
        for name in workloads.WORKLOADS:
            ref[size][name] = {}
            for variant in range(workloads.N_VARIANTS):
                rec = run.run_worker(["--workload", name, "--variant", str(variant), *flag])
                if rec["error"] is not None:
                    raise RuntimeError(f"{name} variant {variant}: {rec['error']}")
                ref[size][name][str(variant)] = rec["answers"]
                print(size, name, variant, rec["answers"], flush=True)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
