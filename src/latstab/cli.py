"""Command-line orchestration: experiments, constants tables, manifests.

Every command that writes an output also writes a manifest next to it with
the full parameter set and sha256 digests of the outputs; `latstab replay`
re-runs a manifest and verifies the outputs reproduce byte for byte. All
randomized commands either take --seed or generate one and print it, so no
irreproducible result can exist.

Exit codes: 0 success, 1 usage error, 2 lattice file parse error,
3 enumeration budget exceeded, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from functools import cache
from pathlib import Path

from . import __version__, constants, siegel, stability
from .enumeration import DEFAULT_BUDGET
from .errors import (
    BudgetExceededError,
    DegenerateBasisError,
    InvariantViolationError,
    LatticeParseError,
)
from .lattice import format_lattice_text, read_lattice
from .sampling import DEFAULT_P, SamplerSpec

SAMPLER_NAMES = {
    "gm": "goldstein_mayer",
    "exact2d": "exact_2d",
    "gauss": "gaussian_baseline",
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4

COVRAD_MAX_N = 6


def _fmt(value) -> str:
    """CSV cell formatting: 12 significant digits, locale independent."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class ExperimentManifest:
    command: str
    parameters: dict
    artifact_version: str
    outputs: dict[str, str]


def _manifest_path(anchor: Path) -> Path:
    if anchor.is_dir():
        return anchor / "manifest.json"
    return anchor.with_name(anchor.name + ".manifest.json")


def _write_manifest(command: str, parameters: dict, outputs: list[Path],
                    anchor: Path) -> Path:
    manifest = ExperimentManifest(
        command=command,
        parameters=parameters,
        artifact_version=__version__,
        outputs={p.name: _sha256(p) for p in outputs},
    )
    path = _manifest_path(anchor)
    path.write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True)
                    + "\n", encoding="ascii")
    return path


def _make_seed(value) -> int:
    if value is not None:
        return int(value)
    seed = int.from_bytes(os.urandom(8), "big") >> 1
    print(f"generated seed: {seed}")
    return seed


def _spec_from_params(params: dict) -> SamplerSpec:
    kind = SAMPLER_NAMES[params["sampler"]]
    p = params.get("p") if kind == "goldstein_mayer" else None
    return SamplerSpec(kind=kind, n=params["n"], seed=params["seed"], p=p)


# -- command runners (pure functions of a parameter dict) --------------------


def _run_constants(params: dict) -> list[Path]:
    out = Path(params["output"])
    n_min, n_max = params["n_min"], params["n_max"]
    c1 = params["c1"]
    header = ["n", "k", "log_B", "B_symmetric_check", "t_k", "C_effective"]
    rows = []
    if n_max >= n_min:
        if n_min < 2:
            raise ValueError("n_min must be at least 2")
        for n in range(n_min, n_max + 1):
            for k in range(1, n):
                row = constants.constants_row(n, k, c1)
                rows.append((row.n, row.k, row.log_b, row.b_symmetric_gap,
                             row.t_k, row.c_effective))
    _write_csv(out, header, rows)
    return [out]


def _run_alpha(params: dict) -> list[Path]:
    lattice = read_lattice(params["lattice_file"])
    budget = params.get("budget")
    if budget is None:
        budget = DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    k = params.get("k")
    if k is not None:
        value, sub = stability.alpha(lattice, k, budget)
        payload = {
            "n": lattice.dim,
            "k": k,
            "alpha": value,
            "minimizer": [list(r) for r in sub.coords],
        }
    else:
        profile = stability.alpha_profile(lattice, budget)
        payload = profile.to_json_dict()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    outputs = []
    if params.get("output"):
        out = Path(params["output"])
        out.write_text(text, encoding="ascii")
        outputs.append(out)
    else:
        sys.stdout.write(text)
    if params.get("csv_out"):
        if k is not None:
            rows = [(lattice.dim, k, value)]
        else:
            rows = stability.profile_csv_rows(profile)
        csv_path = Path(params["csv_out"])
        _write_csv(csv_path, ["n", "k", "alpha_k"], rows)
        outputs.append(csv_path)
    return outputs


def _sample_text(_stream, lattice) -> str:
    return format_lattice_text(lattice)


def _run_sample(params: dict) -> list[Path]:
    if params["samples"] < 1:
        raise ValueError("samples must be at least 1")
    spec = _spec_from_params(params)
    out_dir = Path(params["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = siegel._execute(_sample_text, spec, params["samples"],
                            params["workers"])
    outputs = []
    for i, text in enumerate(texts):
        path = out_dir / f"lattice_{i:06d}.txt"
        path.write_text(text, encoding="ascii")
        outputs.append(path)
    return outputs


def _run_stability_mass(params: dict) -> list[Path]:
    if params["samples"] < 1:
        raise ValueError("samples must be at least 1")
    spec = _spec_from_params(params)
    result = siegel.stability_mass(spec, params["samples"],
                                   workers=params["workers"])
    header = ["n", "sampler", "seed", "n_samples", "stable_fraction",
              "stderr"]
    row = [result.n, result.sampler, result.seed, result.n_samples,
           result.stable_fraction, result.stderr]
    for k, est in enumerate(result.per_k, start=1):
        header += [f"frac_k{k}", f"se_k{k}"]
        row += [est.mean, est.binomial_stderr]
    out = Path(params["output"])
    _write_csv(out, header, [row])
    print(f"m(S^({result.n})) = {_fmt(result.stable_fraction)} "
          f"+- {_fmt(result.stderr)}  ({result.n_samples} samples, "
          f"{result.sampler})")
    return [out]


def _run_verify_siegel(params: dict) -> list[Path]:
    if params["samples"] < 2:
        raise ValueError("samples must be at least 2")
    if not params["t"]:
        raise ValueError("at least one --t threshold is required")
    spec = _spec_from_params(params)
    report = siegel.normalization_ratio(spec, params["k"], params["t"],
                                        params["samples"],
                                        workers=params["workers"])
    if len(report.rows) == 1:
        print("warning: single threshold given; the constancy check "
              "across t is skipped")
    else:
        verdict = "consistent" if report.scaling_consistent else "INCONSISTENT"
        print(f"t-scaling across thresholds: {verdict} "
              f"(max pairwise z = {_fmt(report.max_pairwise_z)})")
    header = ["experiment", "n", "k", "t", "sampler", "p", "seed",
              "n_samples", "mean", "stderr", "reference", "ratio",
              "ratio_stderr"]
    out = Path(params["output"])
    _write_csv(out, header, [
        ("verify_siegel", report.n, report.k, r.t, spec.label(), spec.p,
         spec.seed, report.n_samples, r.mean, r.stderr, r.reference, r.ratio,
         r.ratio_stderr) for r in report.rows])
    for r in report.rows:
        print(f"t={_fmt(r.t)}: mean={_fmt(r.mean)} +- {_fmt(r.stderr)} "
              f"ratio={_fmt(r.ratio)} +- {_fmt(r.ratio_stderr)}")
    return [out]


def _run_covrad(params: dict) -> list[Path]:
    if params["n"] > COVRAD_MAX_N:
        raise BudgetExceededError(
            f"covering radius scans are limited to n <= {COVRAD_MAX_N}; "
            "exact CVP beyond that exceeds the desk-scale budget"
        )
    if params["lattices"] < 1 or params["trials"] < 1:
        raise ValueError("lattices and trials must be at least 1")
    spec = _spec_from_params(params)

    def row(i, lattice):
        est = stability.covrad_lower(lattice, params["trials"],
                                     rng_seed=params["seed"] + 7919 * i)
        return (i, spec.n, spec.label(), spec.seed, est.trials,
                est.lower_bound, " ".join(_fmt(v) for v in est.argmax_point))

    rows = siegel._map_streams(row, spec, 0, params["lattices"])
    out = Path(params["output"])
    _write_csv(out, ["index", "n", "sampler", "seed", "trials",
                     "lower_bound", "argmax_point"], rows)
    return [out]


def _run_alpha_quantiles(params: dict) -> list[Path]:
    if params["samples"] < 1:
        raise ValueError("samples must be at least 1")
    spec = _spec_from_params(params)
    report = siegel.alpha_quantiles(spec, params["k"], params["samples"],
                                    workers=params["workers"])
    header = ["n", "k", "sampler", "seed", "n_samples"]
    row = [report.n, report.k, report.sampler, report.seed, report.n_samples]
    for pct, value in report.quantiles:
        header.append(f"q{pct:02d}")
        row.append(value)
    header.append("alpha_bar_known")
    row.append(report.alpha_bar)
    out = Path(params["output"])
    _write_csv(out, header, [row])
    return [out]


RUNNERS = {
    "constants": _run_constants,
    "alpha": _run_alpha,
    "sample": _run_sample,
    "stability-mass": _run_stability_mass,
    "verify-siegel": _run_verify_siegel,
    "covrad": _run_covrad,
    "alpha-quantiles": _run_alpha_quantiles,
}


def _run_and_record(command: str, params: dict,
                    anchor: Path | None) -> list[Path]:
    outputs = RUNNERS[command](params)
    if outputs and anchor is not None:
        _write_manifest(command, params, outputs, anchor)
    return outputs


def _run_replay(manifest_file: str) -> int:
    path = Path(manifest_file)
    data = json.loads(path.read_text(encoding="ascii"))
    command = data["command"]
    params = data["parameters"]
    if command not in RUNNERS:
        raise ValueError(f"manifest names unknown command {command!r}")
    outputs = RUNNERS[command](params)
    recorded = data["outputs"]
    status = EXIT_OK
    for out in outputs:
        expected = recorded.get(out.name)
        actual = _sha256(out)
        if expected is None:
            print(f"{out.name}: not in manifest")
            status = EXIT_INVARIANT
        elif expected != actual:
            print(f"{out.name}: MISMATCH ({actual} != {expected})")
            status = EXIT_INVARIANT
        else:
            print(f"{out.name}: ok")
    return status


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_workers() -> int:
    """LATSTAB_WORKERS, or 1 when it is unset or empty. The count is checked
    where --workers is, so an invalid one is the same usage error."""
    env = os.environ.get("LATSTAB_WORKERS")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ValueError(
            f"LATSTAB_WORKERS: invalid int value: {env!r}") from None


def _add_sampler_args(sub, with_workers: bool = True) -> None:
    sub.add_argument("--sampler", choices=sorted(SAMPLER_NAMES),
                     default="gm")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=int, default=None,
                     help="prime index for the gm sampler "
                          f"(default {DEFAULT_P})")
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed; generated and printed when omitted")
    if with_workers:
        # default None: _params_from_args reads LATSTAB_WORKERS at each call
        sub.add_argument("--workers", type=int, default=None,
                         help="worker processes; never changes the results")


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: a build leaves a few
    hundred argparse objects in reference cycles, which only a full garbage
    collection frees."""
    parser = _Parser(prog="latstab")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    c = subs.add_parser("constants", help="write the constants table")
    c.add_argument("--n-min", type=int, default=2)
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--c1", type=float, default=50.0,
                   help="constant used for the t_k column")
    c.add_argument("--output", required=True)

    a = subs.add_parser("alpha", help="stability profile of a lattice file")
    a.add_argument("--lattice-file", required=True)
    a.add_argument("--k", type=int, default=None)
    a.add_argument("--output", default=None)
    a.add_argument("--csv-out", default=None)
    a.add_argument("--budget", type=int, default=None)

    s = subs.add_parser("sample", help="emit random lattice files")
    _add_sampler_args(s)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--output-dir", required=True)

    m = subs.add_parser("stability-mass",
                        help="estimate the measure of the stable set")
    _add_sampler_args(m)
    m.add_argument("--samples", type=int, required=True)
    m.add_argument("--output", required=True)

    v = subs.add_parser("verify-siegel",
                        help="mean transform counts against the closed form")
    _add_sampler_args(v)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--t", type=float, action="append", default=None,
                   help="threshold; repeat for the constancy check")
    v.add_argument("--samples", type=int, required=True)
    v.add_argument("--output", required=True)

    r = subs.add_parser("covrad",
                        help="covering-radius lower bounds per lattice")
    _add_sampler_args(r, with_workers=False)
    r.add_argument("--lattices", type=int, default=10)
    r.add_argument("--trials", type=int, required=True)
    r.add_argument("--output", required=True)

    q = subs.add_parser("alpha-quantiles",
                        help="empirical quantiles of the rank-k invariant")
    _add_sampler_args(q)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--output", required=True)

    rp = subs.add_parser("replay", help="re-run a manifest and verify bytes")
    rp.add_argument("manifest")
    return parser


def _params_from_args(args) -> dict:
    skip = {"command"}
    params = {key: value for key, value in vars(args).items()
              if key not in skip}
    if "workers" in params and params["workers"] is None:
        params["workers"] = _default_workers()
    return params


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _run_replay(args.manifest)
        params = _params_from_args(args)
        if "seed" in params:
            params["seed"] = _make_seed(params["seed"])
        anchor: Path | None = None
        if params.get("output"):
            anchor = Path(params["output"])
        elif params.get("output_dir"):
            anchor = Path(params["output_dir"])
        _run_and_record(args.command, params, anchor)
        return EXIT_OK
    except LatticeParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError, DegenerateBasisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
