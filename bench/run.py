"""latstab benchmark: sampled lattices per second through the CLI experiments.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mass-n6 --seed 3 --seconds 20 --trace 0

Each workload is one CLI experiment. A run calls ``latstab.cli.main``
in-process, always with ``--workers 1``, on a sequence of fixed-size commands
("batches") whose ``--seed`` values are derived from the benchmark's own
``--seed``; the same seed therefore gives the same lattices.

``--trace 0`` measures the end-to-end metrics: set-up time of a fresh
interpreter, lattices completed per second pooled over the run's batches,
peak RSS and the share of commands that succeeded. ``--trace 1`` runs a
fixed number of batches once untraced and once under the outside-in layer
tracer (``layertrace.py``) and reports per-layer self times and exact counts.
Every command's output is checked (``checks.py``); the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import layertrace
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 1
SETUP_REPS = 7
# an interpreter that only imports numpy, and its time on the machine the
# baseline was recorded on; set-up times are rescaled by it (see time_setup)
BARE_COMMAND = [sys.executable, "-c", "import numpy"]
BARE_REFERENCE_S = 0.25
SEED_STRIDE = 100_000  # batch i of benchmark seed s runs the CLI at s*STRIDE+i
WARMUP_BATCH = SEED_STRIDE - 1
# every benchmark seed times set-up on the same lattice: one lattice at
# n = 6 costs 5 ms to 0.6 s, and set-up time should not depend on which
# lattice a seed draws
SETUP_SEED = DEFAULT_SEED * SEED_STRIDE + SEED_STRIDE - 2


@dataclass(frozen=True)
class Workload:
    command: str
    args: tuple[str, ...]
    size_flag: str  # the CLI flag that sets the number of lattices
    batch: int  # lattices per command
    trace_batches: int  # commands in the traced run
    min_size: int = 1
    workers: bool = True  # covrad has no --workers flag
    # share of the sampled lattices in the heavy stratum (see heavy_count);
    # None pools the batches as they come
    heavy_share: float | None = None


WORKLOADS = {
    # criterion 2's path: per-lattice fixed cost, three passes per command
    "siegel-n2": Workload(
        "verify-siegel",
        ("--n", "2", "--k", "1", "--sampler", "exact2d",
         "--t", "0.8", "--t", "1.0", "--t", "1.2"),
        "--samples", batch=100, trace_batches=20, min_size=2),
    # exact-form decision search with early exit; heavy rank-(n-1) tail:
    # about 3.6% of gm lattices at n = 6 lie in S_5 (363 of 10,000 lie in
    # S_1, which has the same law by duality), and their exhausted rank-5
    # search is 60% of the time
    "mass-n6": Workload(
        "stability-mass", ("--n", "6", "--sampler", "gm"),
        "--samples", batch=10, trace_batches=100, heavy_share=0.036),
    # minimization mode: no early exit, shrinking threshold, k > n/2
    "alpha-n6-k4": Workload(
        "alpha-quantiles", ("--n", "6", "--k", "4", "--sampler", "gm"),
        "--samples", batch=5, trace_batches=80),
    # the only CVP path; the subgroup search never runs
    "covrad-n5": Workload(
        "covrad", ("--n", "5", "--sampler", "gm", "--trials", "200"),
        "--lattices", batch=5, trace_batches=40, workers=False),
}

# sha256 of the CSV of batch 0 at the default seed, from the commit that
# defined this benchmark; a faster program must reproduce these bytes
PINNED_CSV_SHA256 = {
    "siegel-n2":
        "ed85f71131a6550b2b564083fad32115604d157421c368eed6e5814591c34c4a",
    "mass-n6":
        "073c245b7ab057aec666a82f3f960aa14a2fa2c88c33f9faa7de821c9ce6973c",
    "alpha-n6-k4":
        "3d339d55fd0ccbb357de086cc8aa46e0b936c2ad20088473e8fccc8afcce6ef4",
    "covrad-n5":
        "0b5c9bba855dcbb59065bbd1cbc2ce8d95f89434faa93dc46244cb1d522cfbfc",
}


def heavy_count(w: Workload, text: str) -> int:
    """Lattices of a stability-mass batch that lie in S_(n-1): for them no
    rank n-1 witness exists and the search at that rank runs to the end."""
    (row,) = checks.parse_csv(text)
    n = int(row["n"])
    return round(float(row[f"frac_k{n - 1}"]) * w.batch)


def pooled_rate(w: Workload, batches: list[tuple[float, str]]) -> float:
    """Lattices per second over all batches, each batch's (time, CSV).

    With a heavy share the two strata are timed apart, the light one on
    the batches that hold no heavy lattice, and mixed at that fixed share.
    The number of heavy lattices in one run varies from seed to seed (46
    to 63 in ten 25 s runs of mass-n6), and the plain pooled rate spread
    by 0.146 with it; mixed at the fixed share it spread by 0.050."""
    pooled = w.batch * len(batches) / sum(t for t, _ in batches)
    if w.heavy_share is None:
        return pooled
    obs = [(t, heavy_count(w, text)) for t, text in batches]
    light = [t for t, m in obs if m == 0]
    heavy = sum(m for _, m in obs)
    if not light or not heavy:  # too short a run to split
        return pooled
    light_s = sum(light) / (w.batch * len(light))
    heavy_s = sum(t - (w.batch - m) * light_s for t, m in obs if m) / heavy
    return 1.0 / ((1.0 - w.heavy_share) * light_s + w.heavy_share * heavy_s)


def batch_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


def cli_argv(w: Workload, seed: int, size: int, out: Path) -> list[str]:
    argv = [w.command, *w.args, w.size_flag, str(size), "--seed", str(seed),
            "--output", str(out)]
    if w.workers:
        argv += ["--workers", "1"]
    return argv


def machine_info(numpy_version: str) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# -- running commands ---------------------------------------------------------


class Runner:
    """Runs one workload's CLI commands in-process and checks each output."""

    def __init__(self, latstab, w: Workload, out_dir: Path):
        self.latstab = latstab
        self.w = w
        self.csv = out_dir / "out.csv"
        self.attempted = 0
        self.failed_seeds: set[int] = set()
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_seeds)

    def fail(self, seed: int, problems: list[str]) -> None:
        """Count the command at this seed as failed, once, with reasons."""
        self.failed_seeds.add(seed)
        self.problems += problems

    def command(self, seed: int, size: int, tracer=None):
        """One CLI command; returns (seconds, csv text or None)."""
        argv = cli_argv(self.w, seed, size, self.csv)
        sink = io.StringIO()
        rec = tracer.open("harness.batch") if tracer else None
        code = None
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                t0 = time.perf_counter()
                try:
                    code = self.latstab.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a crash is a failed operation, not ours
                    traceback.print_exc(file=sink)
                elapsed = time.perf_counter() - t0
            text = self.csv.read_text(encoding="ascii") if code == 0 else None
        finally:
            if rec is not None:
                tracer.close(rec)
        if text is None:
            self.problems.append(f"seed {seed}: exit {code}: "
                                 + sink.getvalue().strip()[-500:])
        return elapsed, text

    def checked(self, seed: int, size: int, tracer=None):
        """A counted command whose output must pass the sanity checks; under
        a tracer the caller checks later, so that no check is traced."""
        self.attempted += 1
        elapsed, text = self.command(seed, size, tracer)
        if tracer is None:
            self.check(seed, size, text)
        return elapsed, text

    def check(self, seed: int, size: int, text: str | None) -> None:
        problems = ([] if text is None else
                    [f"seed {seed}: {p}" for p in
                     checks.sanity(self.latstab, self.w, text, size)])
        if text is None or problems:
            self.fail(seed, problems)

    def verify(self, name: str, seed: int, text: str | None) -> None:
        """Deep checks of batch 0: pinned bytes at the default seed, and a
        recomputation through the public API at any seed."""
        if text is None:
            return
        pinned = PINNED_CSV_SHA256[name]
        if seed == batch_seed(DEFAULT_SEED, 0):
            digest = hashlib.sha256(text.encode("ascii")).hexdigest()
            if digest != pinned:
                self.fail(seed, [f"batch 0 CSV sha256 {digest} differs "
                                 f"from the pinned {pinned}"])
        problems = checks.recompute(self.latstab, self._spec(seed), self.w,
                                    text, self.w.batch)
        if problems:
            self.fail(seed, [f"recompute: {p}" for p in problems])

    def _spec(self, seed: int):
        args = dict(zip(self.w.args[::2], self.w.args[1::2]))
        kind = self.latstab.cli.SAMPLER_NAMES[args["--sampler"]]
        return self.latstab.SamplerSpec(kind=kind, n=int(args["--n"]),
                                        seed=seed)


def setup_command(w: Workload, out_dir: Path) -> list[str]:
    """A fresh interpreter that imports latstab and its CLI, parses the
    arguments and runs a one-lattice command."""
    argv = cli_argv(w, SETUP_SEED, w.min_size, out_dir / "setup.csv")
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "import latstab, latstab.cli\n"
            f"sys.exit(latstab.cli.main({argv!r}))\n")
    return [sys.executable, "-c", code]


def _wall(cmd: list[str]) -> float:
    env = {k: v for k, v in os.environ.items() if k != "LATSTAB_WORKERS"}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:2]} failed: "
                           + proc.stderr.decode(errors="replace")[-500:])
    return elapsed


def time_setup(cmd: list[str]) -> tuple[float, float]:
    """Wall time of one set-up command: raw, and rescaled by a bare
    interpreter run just before it to the speed at which that takes
    BARE_REFERENCE_S. Starting interpreters and importing numpy drift
    with the machine as a whole, and not with the calibration kernel."""
    bare = _wall(BARE_COMMAND)
    elapsed = _wall(cmd)
    return elapsed, elapsed * BARE_REFERENCE_S / bare


# -- the two modes ------------------------------------------------------------


def run_untraced(latstab, name: str, seed: int, seconds: int, out_dir: Path):
    w = WORKLOADS[name]
    setup_cmd = setup_command(w, out_dir)
    time_setup(setup_cmd)  # fills the bytecode cache
    runner = Runner(latstab, w, out_dir)
    runner.command(batch_seed(seed, WARMUP_BATCH), w.min_size)
    setup, ref_setup = [], []
    raw, ref = [], []  # (seconds, csv) of each batch that passed its checks
    first = None
    busy = 0.0  # time spent in batches; set-up runs are spread among them
    i = 0
    before = speed.calibrate()
    while busy < seconds:
        if (len(setup) < SETUP_REPS
                and busy >= len(setup) * seconds / SETUP_REPS):
            s_raw, s_ref = time_setup(setup_cmd)
            setup.append(s_raw)
            ref_setup.append(s_ref)
            before = speed.calibrate()
        elapsed, text = runner.checked(batch_seed(seed, i), w.batch)
        after = speed.calibrate()
        busy += elapsed
        if i == 0:
            first = text
        if text is not None and batch_seed(seed, i) not in runner.failed_seeds:
            raw.append((elapsed, text))
            # the machine's speed during the command: the mean of the two
            # calibrations that bracket it
            ref.append((elapsed * 2 * speed.REFERENCE_S / (before + after),
                        text))
        before = after
        i += 1
    runner.verify(name, batch_seed(seed, 0), first)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "batches": i,
        "lattices_per_batch": w.batch,
        "lattices_per_s": pooled_rate(w, raw) if raw else 0.0,
        "setup_s_raw": statistics.median(setup),
        "setup_s_all": setup,
        "setup_s_ref_all": ref_setup,
        "batch_s": [t for t, _ in raw],
        "batch_ref_s": [t for t, _ in ref],
        "failed_frac": runner.failed / runner.attempted,
    }
    if w.heavy_share is not None:
        detail["heavy_per_batch"] = [heavy_count(w, text) for _, text in raw]
    metrics = {
        "lattices_per_ref_s": (pooled_rate(w, ref) if ref else 0.0, "1/s"),
        "setup_s": (statistics.median(ref_setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    return runner, metrics, detail


def run_traced(latstab, modules, name: str, seed: int, out_dir: Path):
    w = WORKLOADS[name]
    runner = Runner(latstab, w, out_dir)
    runner.command(batch_seed(seed, WARMUP_BATCH), w.min_size)
    seeds = [batch_seed(seed, i) for i in range(w.trace_batches)]
    tracer = layertrace.Tracer(modules)
    untraced, traced, texts = [], [], []
    # alternate untraced and traced commands so that slow phases of a
    # shared machine hit both sides of the overhead ratio alike
    for i, s in enumerate(seeds):
        untraced.append(runner.checked(s, w.batch)[0])
        tracer.run = i
        with tracer:
            elapsed, text = runner.checked(s, w.batch, tracer)
        traced.append(elapsed)
        texts.append(text)
    for s, text in zip(seeds, texts):
        runner.check(s, w.batch, text)
    runner.verify(name, seeds[0], texts[0])

    # cross-check every command against its traced per-lattice results
    per_lattice = layertrace.lattices(tracer)
    for i, text in enumerate(texts):
        if text is not None:
            mine = [r for r in per_lattice if r["run"] == i]
            problems = checks.cross_check(latstab, w, text, mine)
            if problems:
                runner.fail(seeds[i], [f"cross-check seed {seeds[i]}: {p}"
                                       for p in problems])

    # self-test: a second traced run of batch 0 repeats every count exactly
    with layertrace.Tracer(modules) as again:
        runner.command(seeds[0], w.batch, again)
    first_counts = layertrace.run_counts(tracer, 0)
    second_counts = layertrace.run_counts(again, 0)
    if first_counts != second_counts:
        diff = {k: (first_counts.get(k), second_counts.get(k))
                for k in set(first_counts) | set(second_counts)
                if first_counts.get(k) != second_counts.get(k)}
        runner.problems.append(f"self-test: counts differ between two "
                               f"traced runs: {diff}")

    metrics = layertrace.layer_metrics(tracer, w.batch * len(seeds),
                                       len(seeds))
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0,
                                      "ratio")
    tracer.write_spans(out_dir / "spans.tsv.gz")
    slowest = max(per_lattice, key=lambda r: r["end"] - r["start"])
    detail = {"batches": len(seeds), "lattices_per_batch": w.batch,
              "untraced_s": sum(untraced), "traced_s": sum(traced),
              "counts": layertrace.run_counts(tracer),
              "slowest_lattice": {"cli_seed": seeds[slowest["run"]],
                                  "stream": slowest["stream"],
                                  "ms": 1e3 * (slowest["end"]
                                               - slowest["start"])}}
    return runner, metrics, detail


# -- entry point --------------------------------------------------------------


def import_latstab():
    if not (SRC / "latstab" / "__init__.py").is_file():
        print(f"error: no latstab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    os.environ.pop("LATSTAB_WORKERS", None)
    import latstab
    import latstab.cli
    if Path(latstab.__file__).resolve().parent != SRC / "latstab":
        print(f"error: imported latstab from {latstab.__file__}",
              file=sys.stderr)
        raise SystemExit(2)
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "latstab" or n.startswith("latstab.")]
    return latstab, modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    latstab, modules = import_latstab()
    import numpy
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    machine = machine_info(numpy.__version__)
    if args.trace:
        runner, metrics, detail = run_traced(latstab, modules, args.workload,
                                             args.seed, out_dir)
    else:
        runner, metrics, detail = run_untraced(latstab, args.workload,
                                               args.seed, args.seconds,
                                               out_dir)
    correct = not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "detail": detail,
              "problems": runner.problems, **result}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine))
    for p in runner.problems:
        print(f"PROBLEM {p}")
    print(f"failed_frac {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed} of {runner.attempted} commands)")
    if not args.trace:
        print(f"lattices_per_s {detail['lattices_per_s']:.6g} 1/s (raw), "
              f"setup_s {detail['setup_s_raw']:.4g} s (raw)")
    for k, (v, u) in metrics.items():
        print(f"{k:32s} {v:14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
