"""Generate one workload fixture in its own process and record run metadata.

Usage: python3 perfbench/fixtures.py <recipe> <seed> <out-dir>

Runs before the timed runs and in a process of its own, so that the
O(n^2) candidate-pair arrays of ``generate_sbm`` never reach the timed
processes' ``wall_s`` or ``peak_rss_mb``. Writes the fixture files and
``meta.json`` (machine and library facts) into ``out-dir``.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from ratings import ITEMS, USERS, generate_ratings, write_ratings
from smoothcert import build_similarity, load_interaction_dataset, recommend_topk
from smoothcert.cli import main as cli_main
from workloads import FIXTURES

SANITY_USERS = 100
K_PRIME = 10


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def make_ratings(seed: int, out: Path) -> dict:
    path = out / "ratings.tsv"
    write_ratings(generate_ratings(seed), path)
    matrix, held_out = load_interaction_dataset(path, 0.85)
    if (matrix.users, matrix.items) != (USERS, ITEMS):
        raise SystemExit(f"rating log has shape {matrix.users}x{matrix.items}")
    # The planted clusters must make the base recommender useful.
    model = build_similarity(matrix)
    hits = recommended = 0
    for u in range(SANITY_USERS):
        recs = recommend_topk(model, matrix.items_of(u), K_PRIME)
        hits += np.intersect1d(recs, held_out[u]).size
        recommended += recs.size
    if hits == 0:
        raise SystemExit("base recommender hits no held-out item")
    return {"ratings": int(matrix.nnz + sum(h.size for h in held_out)),
            "base_topk_hit_rate": hits / recommended}


def main(argv) -> int:
    recipe, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }
    if FIXTURES[recipe] is None:
        meta.update(make_ratings(seed, out))
    else:
        code = cli_main([*FIXTURES[recipe], "--seed", str(seed), "--out", str(out)])
        if code != 0:
            return code
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
