"""Informational sweep: milliseconds per lattice for each CLI experiment at
n = 2..8. Not a gated workload: its numbers are for the record.

Usage, from the root of a checkout:

    python3 bench/sweep.py

Each cell runs ``latstab.cli.main`` in-process with ``--workers 1`` at seed 1,
doubling the number of lattices from one until a command takes 2 s or holds
1024 lattices; n = 7, 8 run a fixed, small number of lattices
(one stability-mass lattice can take seconds there). Covering-radius scans
stop at the CLI's own limit n <= 6. Results go to bench/out/sweep.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import OUT, import_latstab, machine_info  # noqa: E402

EXPERIMENTS = {
    "stability-mass": (["--sampler", "gm"], "--samples"),
    "verify-siegel": (["--sampler", "gm", "--k", "1", "--t", "0.8",
                       "--t", "1.0", "--t", "1.2"], "--samples"),
    "alpha-quantiles": (["--sampler", "gm", "--k", "1"], "--samples"),
    "covrad": (["--sampler", "gm", "--trials", "200"], "--lattices"),
}
# fixed lattice counts at n = 7, 8: doubling would stop after one lattice,
# and one lattice says nothing about a cost set by a heavy tail
FIXED = {7: 16, 8: 4}
FIXED_MASS = {7: 64, 8: 3}
SEED = 1
BUDGET_S = 2.0


def run_cell(latstab, command, n, size, seed, out):
    extra, size_flag = EXPERIMENTS[command]
    argv = [command, "--n", str(n), *extra, size_flag, str(size),
            "--seed", str(seed), "--output", str(out)]
    if command != "covrad":
        argv += ["--workers", "1"]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = latstab.cli.main(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{argv}: exit {code}: {sink.getvalue()[-300:]}")
    return elapsed


def main() -> int:
    latstab, _ = import_latstab()
    import numpy
    out_dir = OUT / "sweep"
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = []
    for command in EXPERIMENTS:
        for n in range(2, 9):
            if command == "covrad" and n > latstab.cli.COVRAD_MAX_N:
                cells.append({"command": command, "n": n, "lattices": 0,
                              "ms_per_lattice": None,
                              "note": "refused by the CLI (n > 6)"})
                continue
            fixed = (FIXED_MASS if command == "stability-mass" else FIXED)
            size = fixed.get(n, 2 if command == "verify-siegel" else 1)
            while True:
                elapsed = run_cell(latstab, command, n, size, SEED,
                                   out_dir / "out.csv")
                if n in fixed or elapsed >= BUDGET_S or size >= 1024:
                    break
                size *= 2
            cells.append({"command": command, "n": n, "lattices": size,
                          "ms_per_lattice": 1e3 * elapsed / size})
            print(f"{command:16s} n={n}  {1e3 * elapsed / size:10.3f} "
                  f"ms/lattice  ({size} lattices)", flush=True)
    record = {"seed": SEED, "budget_s": BUDGET_S,
              "machine": machine_info(numpy.__version__), "cells": cells}
    (out_dir / "sweep.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
