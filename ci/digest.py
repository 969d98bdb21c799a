"""Byte-identity digest of the benchmark workloads' outputs.

    python3 ci/digest.py [--smoke]

Runs one measured pass of each workload of ``perfbench/workloads.py`` at
seed 1 on the sources of this checkout, in a temporary directory, and
prints one JSON line per workload: the sha256 of
``pickle.dumps(wl.fingerprint(result))``, the failed-operation count and
the quality metrics. Two commits whose lines are equal gave the same
outputs bit for bit. Nothing is written in the checkout.
"""

import os
import sys

# A fixed setting, as in perfbench/run.py: results must not depend on
# the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the numpy import
sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

SEED = 1


def digest(name, scale) -> dict:
    """One measured pass of workload ``name``, checked and digested."""
    with tempfile.TemporaryDirectory(prefix="mfkrig-digest-") as workdir:
        wl = workloads.WORKLOADS[name](SEED, scale, workdir)
        wl.setup()
        result = workloads.measured_pass(wl)
        fingerprint = wl.fingerprint(result)
        wl.check(result)
        return {"workload": name,
                "sha256": hashlib.sha256(pickle.dumps(fingerprint)).hexdigest(),
                "failed": result.failed_ops,
                "quality": wl.quality(result)}


if __name__ == "__main__":
    scale = "smoke" if sys.argv[1:] == ["--smoke"] else "full"
    if sys.argv[1:] not in ([], ["--smoke"]):
        sys.exit(f"usage: {sys.argv[0]} [--smoke]")
    for name in workloads.WORKLOADS:
        print(json.dumps(digest(name, scale)), flush=True)
