"""Correctness checks on the CSV outputs of the benchmark workloads.

Three levels, all outside the timed region:

* ``sanity``: every command's CSV parses and obeys invariants that hold for
  any input (counts are even, fractions lie in [0, 1], quantiles ascend...).
* ``recompute``: the lattices of one command are drawn again through the
  public API and their results recomputed by other entry points than the
  CLI uses (``is_stable``/``in_s_k``, one pass of ``siegel_transform_count``
  at the largest threshold, ``alpha``, ``covrad_lower`` plus Babai's upper
  bound on the covering radius); the CLI's totals must match digit for digit.
* ``cross_check``: in the traced run, the CLI's totals must match the
  per-lattice results that the traced public calls returned.

Each returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np


def fmt(value) -> str:
    """The CLI's CSV cell format (12 significant digits)."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise ValueError("ragged CSV row")
    return [dict(zip(header, row)) for row in cells]


def _percentiles(latstab, values):
    percents = latstab.siegel.QUANTILE_PERCENTS
    return [float(q) for q in np.percentile(np.array(values), percents)]


# -- sanity: any input --------------------------------------------------------


def sanity(latstab, workload, text: str, size: int) -> list[str]:
    try:
        rows = parse_csv(text)
        return _SANITY[workload.command](latstab, workload, rows, size)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _sanity_mass(latstab, w, rows, size):
    (row,) = rows
    n = int(row["n"])
    problems = []
    if int(row["n_samples"]) != size:
        problems.append("n_samples differs from --samples")
    overall = float(row["stable_fraction"]) * size
    if not 0 <= overall <= size or abs(overall - round(overall)) > 1e-6:
        problems.append("stable_fraction is not a count over n_samples")
    for k in range(1, n):
        if float(row[f"frac_k{k}"]) < float(row["stable_fraction"]):
            problems.append(f"rank {k} fraction below the overall fraction")
    return problems


def _sanity_siegel(latstab, w, rows, size):
    problems = []
    prev = -1.0
    for row in sorted(rows, key=lambda r: float(r["t"])):
        total = float(row["mean"]) * size
        if abs(total - round(total)) > 1e-6 or round(total) % 2:
            problems.append(f"t={row['t']}: mean is not an even count/n")
        ref = math.exp(latstab.thunder_integral_log(
            int(row["n"]), int(row["k"]), float(row["t"])))
        if row["reference"] != fmt(ref):
            problems.append(f"t={row['t']}: reference is not B(n,k)t^n/n")
        if float(row["mean"]) < prev:
            problems.append("counts decrease with the threshold")
        prev = float(row["mean"])
    return problems


def _sanity_alpha(latstab, w, rows, size):
    (row,) = rows
    qs = [float(v) for k, v in row.items() if k.startswith("q")]
    problems = []
    if int(row["n_samples"]) != size:
        problems.append("n_samples differs from --samples")
    if any(b < a for a, b in zip(qs, qs[1:])) or qs[0] <= 0:
        problems.append("quantiles are not positive and ascending")
    if row["alpha_bar_known"] and qs[-1] > float(row["alpha_bar_known"]):
        problems.append("a quantile exceeds the extremal value")
    return problems


def _sanity_covrad(latstab, w, rows, size):
    problems = []
    if [int(r["index"]) for r in rows] != list(range(size)):
        problems.append("rows do not cover the requested lattices")
    if any(not float(r["lower_bound"]) > 0 for r in rows):
        problems.append("non-positive covering radius bound")
    return problems


_SANITY = {
    "stability-mass": _sanity_mass,
    "verify-siegel": _sanity_siegel,
    "alpha-quantiles": _sanity_alpha,
    "covrad": _sanity_covrad,
}


# -- recompute: public API on the same lattices -------------------------------


def recompute(latstab, spec, workload, text: str, size: int) -> list[str]:
    """Recompute one command's output from freshly drawn lattices."""
    rows = parse_csv(text)
    lats = [latstab.sample_lattice(spec.with_stream(i)) for i in range(size)]
    return _RECOMPUTE[workload.command](latstab, spec, workload, rows, lats)


def _param(workload, flag):
    return workload.args[workload.args.index(flag) + 1]


def _recompute_mass(latstab, spec, w, rows, lats):
    (row,) = rows
    n = spec.n
    tol = latstab.stability.STABILITY_TOL
    stable = sum(latstab.is_stable(lat) for lat in lats)
    problems = []
    if row["stable_fraction"] != fmt(stable / len(lats)):
        problems.append("stable count differs from is_stable")
    for k in range(1, n):
        good = sum(latstab.in_s_k(lat, k, 1.0 - tol) for lat in lats)
        if row[f"frac_k{k}"] != fmt(good / len(lats)):
            problems.append(f"rank {k} count differs from in_s_k")
    return problems


def _counts_by_t(latstab, k, ts, lats):
    """One pass per lattice at the largest threshold, tallied per t."""
    counts = {t: [] for t in ts}
    for lat in lats:
        found = latstab.siegel_transform_count(lat, k, max(ts)).subgroups
        for t in ts:
            counts[t].append(2 * sum(1 for s in found if s.covolume <= t))
    return counts


def _siegel_problems(latstab, rows, counts):
    problems = []
    by_t = {row["t"]: row for row in rows}
    for t, values in counts.items():
        row = by_t.get(fmt(t))
        if row is None:
            problems.append(f"no row for t={t}")
            continue
        est = latstab.McEstimate.from_values(values)
        if (row["mean"], row["stderr"]) != (fmt(est.mean), fmt(est.stderr)):
            problems.append(f"t={fmt(t)}: count totals differ")
    return problems


def _recompute_siegel(latstab, spec, w, rows, lats):
    k = int(_param(w, "--k"))
    ts = sorted({float(row["t"]) for row in rows})
    return _siegel_problems(latstab, rows, _counts_by_t(latstab, k, ts, lats))


def _alpha_problems(latstab, row, values):
    got = [v for key, v in row.items() if key.startswith("q")]
    if got != [fmt(q) for q in _percentiles(latstab, values)]:
        return ["quantiles differ from the per-lattice alpha values"]
    return []


def _recompute_alpha(latstab, spec, w, rows, lats):
    k = int(_param(w, "--k"))
    values = [latstab.alpha(lat, k)[0] for lat in lats]
    return _alpha_problems(latstab, rows[0], values)


def _recompute_covrad(latstab, spec, w, rows, lats):
    trials = int(_param(w, "--trials"))
    problems = []
    for row, lat in zip(rows, lats):
        i = int(row["index"])
        est = latstab.covrad_lower(lat, trials, rng_seed=spec.seed + 7919 * i)
        if row["lower_bound"] != fmt(est.lower_bound):
            problems.append(f"lattice {i}: bound differs from covrad_lower")
        # Babai: every point lies within sqrt(sum |b*_i|^2) / 2 of the lattice
        r = np.linalg.qr(lat.basis.T, mode="r")
        babai = 0.5 * math.sqrt(float(np.sum(np.diag(r) ** 2)))
        if est.lower_bound > babai * (1 + 1e-9):
            problems.append(f"lattice {i}: bound exceeds the Babai radius")
    return problems


_RECOMPUTE = {
    "stability-mass": _recompute_mass,
    "verify-siegel": _recompute_siegel,
    "alpha-quantiles": _recompute_alpha,
    "covrad": _recompute_covrad,
}


# -- cross_check: CLI totals against the traced per-lattice results -----------


def cross_check(latstab, workload, text: str, lattices) -> list[str]:
    """Compare one command's CSV with the per-lattice traced results.

    ``lattices`` are the records of ``layertrace.lattices`` for this command.
    """
    rows = parse_csv(text)
    cmd = workload.command
    if cmd == "stability-mass":
        (row,) = rows
        n = int(row["n"])
        per_k = {k: 0 for k in range(1, n)}
        stable = 0
        for rec in lattices:
            hits = {k: hit for name, (k, hit) in rec["results"]}
            stable += not any(hits.values())
            for k in per_k:
                per_k[k] += not hits[k]
        problems = []
        if row["stable_fraction"] != fmt(stable / len(lattices)):
            problems.append("stable count differs from traced exists_below")
        for k, good in per_k.items():
            if row[f"frac_k{k}"] != fmt(good / len(lattices)):
                problems.append(f"rank {k} count differs from the trace")
        return problems
    if cmd == "verify-siegel":
        counts: dict[float, list[int]] = {}
        for rec in lattices:
            for name, (t, covols) in rec["results"]:
                counts.setdefault(t, []).append(2 * len(covols))
        return _siegel_problems(latstab, rows, counts)
    if cmd == "alpha-quantiles":
        values = []
        for rec in lattices:
            ((name, (k, covol)),) = rec["results"]
            values.append(covol ** (1.0 / k))
        return _alpha_problems(latstab, rows[0], values)
    problems = []
    for row, rec in zip(rows, lattices):
        best = max(d for name, d in rec["results"])
        if row["lower_bound"] != fmt(best):
            problems.append(f"lattice {row['index']}: bound differs from the "
                            "traced closest_vector distances")
    if len(rows) != len(lattices):
        problems.append("traced lattice count differs from the CSV")
    return problems
