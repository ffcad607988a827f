"""CLI: commands, exit codes, manifests, replay, worker independence."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import latstab
from latstab import siegel, stability
from latstab.cli import main
from latstab.enumeration import DEFAULT_BUDGET
from conftest import P_TOP


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_constants_command(tmp_path):
    out = tmp_path / "const.csv"
    assert run(["constants", "--n-max", "4", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,log_B,B_symmetric_check,t_k,C_effective"
    row21 = lines[1].split(",")
    assert row21[0] == "2" and row21[1] == "1"
    assert abs(float(row21[2]) - math.log(12 / math.pi)) < 1e-11
    assert float(row21[3]) == 0.0
    # symmetric rows carry byte-identical log_B
    by_nk = {(r.split(",")[0], r.split(",")[1]): r.split(",")[2]
             for r in lines[1:]}
    assert by_nk[("3", "1")] == by_nk[("3", "2")]
    assert by_nk[("4", "1")] == by_nk[("4", "3")]
    # manifest exists and digests verify
    manifest = json.loads((tmp_path / "const.csv.manifest.json").read_text())
    assert manifest["command"] == "constants"
    assert "const.csv" in manifest["outputs"]


def test_constants_empty_range(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["constants", "--n-min", "5", "--n-max", "4",
                "--output", str(out)]) == 0
    assert out.read_text() == "n,k,log_B,B_symmetric_check,t_k,C_effective\n"


def test_alpha_command(tmp_path, capsys):
    f = tmp_path / "id.txt"
    f.write_text("2\n1 0\n0 1\n")
    assert run(["alpha", "--lattice-file", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert payload["alphas"] == [1.0]

    g = tmp_path / "diag.txt"
    g.write_text("2\n2 0\n0 1/2\n")
    out = tmp_path / "diag.json"
    csv_out = tmp_path / "diag.csv"
    assert run(["alpha", "--lattice-file", str(g), "--output", str(out),
                "--csv-out", str(csv_out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["alphas"] == [0.5]
    assert payload["stable"] is False
    assert csv_out.read_text().splitlines()[1] == "2,1,0.5"


def test_alpha_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\n1 zz\n0 1\n")
    assert run(["alpha", "--lattice-file", str(f)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_alpha_budget_exit_3(tmp_path):
    f = tmp_path / "id4.txt"
    f.write_text("4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert run(["alpha", "--lattice-file", str(f), "--budget", "3"]) == 3


def test_usage_errors(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["stability-mass", "--n", "2", "--sampler", "exact2d",
                "--samples", "0", "--seed", "1", "--output", str(out)]) == 1
    with pytest.raises(SystemExit) as err:
        run(["stability-mass", "--n", "2", "--sampler", "bogus",
             "--samples", "5", "--seed", "1", "--output", str(out)])
    assert err.value.code == 1
    # thresholds whose search radius would overflow
    for bad in ("inf", "1e300"):
        assert run(["verify-siegel", "--n", "2", "--k", "1", "--t", bad,
                    "--t", "1", "--sampler", "exact2d", "--samples", "4",
                    "--seed", "1", "--output", str(out)]) == 1
    # a node budget below 1 is not a budget
    f = tmp_path / "id2.txt"
    f.write_text("2\n1 0\n0 1\n")
    for bad in ("0", "-1"):
        assert run(["alpha", "--lattice-file", str(f), "--budget", bad]) == 1


@pytest.fixture
def draws(monkeypatch):
    """Streams of the lattices the experiments draw."""
    seen = []
    real = siegel.sample_lattice

    def counting(spec):
        seen.append(spec.stream)
        return real(spec)

    monkeypatch.setattr(siegel, "sample_lattice", counting)
    return seen


def test_out_of_range_rank_draws_nothing(tmp_path, draws):
    out = tmp_path / "x.csv"
    common = ["--n", "4", "--sampler", "gm", "--samples", "300", "--seed", "1",
              "--workers", "1", "--output", str(out)]
    for k in ("4", "0"):
        for ts in (["--t", "1.0"], ["--t", "0.8", "--t", "1.0"]):
            assert run(["verify-siegel", "--k", k] + ts + common) == 1
        assert run(["alpha-quantiles", "--k", k] + common) == 1
    assert draws == []


def test_unrepresentable_reference_draws_nothing(tmp_path, draws):
    # t = 1e-300 passes the search's own threshold check, but the closed-form
    # mean count B(3, 1) t^3 / 3 underflows to 0 (and at t = 1e120 it
    # overflows), so no ratio against it exists
    out = tmp_path / "x.csv"
    common = ["--n", "3", "--k", "1", "--samples", "2", "--seed", "1",
              "--workers", "1", "--output", str(out)]
    for t in ("1e-300", "1e120"):
        for ts in (["--t", t], ["--t", t, "--t", "1"]):
            assert run(["verify-siegel"] + ts + common) == 1
    assert draws == []


def test_repeated_threshold_draws_nothing(tmp_path, draws, capsys):
    # a threshold given twice would pair with itself at z = 0
    out = tmp_path / "x.csv"
    common = ["--n", "2", "--k", "1", "--sampler", "exact2d", "--samples",
              "4", "--seed", "1", "--workers", "1", "--output", str(out)]
    for ts in (["--t", "1.0", "--t", "1.0"], ["--t", "1", "--t", "1.0"]):
        assert run(["verify-siegel"] + ts + common) == 1
        assert capsys.readouterr().err == (
            "error: each threshold may be given once, got [1.0, 1.0]\n")
    assert draws == []
    assert not out.exists()


def test_worker_count_below_one_draws_nothing(tmp_path, draws):
    out = tmp_path / "x.csv"
    common = ["--n", "3", "--sampler", "gm", "--samples", "4", "--seed", "1"]
    for bad in ("0", "-2"):
        for argv in (["stability-mass", "--output", str(out)],
                     ["verify-siegel", "--k", "1", "--t", "1.0",
                      "--output", str(out)],
                     ["alpha-quantiles", "--k", "1", "--output", str(out)],
                     ["sample", "--output-dir", str(tmp_path / "lats")]):
            assert run(argv + common + ["--workers", bad]) == 1
    assert draws == []
    # no output and no manifest records the invalid count
    assert not out.exists()
    assert list(tmp_path.rglob("*.json")) == []


def test_sample_count_below_the_minimum_draws_nothing(tmp_path, draws):
    # the experiments refuse too few samples before any draw, and nothing
    # is written: no output, no directory, no manifest
    out = tmp_path / "x.csv"
    lats = ["--output-dir", str(tmp_path / "lats")]
    common = ["--n", "3", "--sampler", "gm", "--seed", "1"]
    for argv in (["stability-mass", "--samples", "0", "--output", str(out)],
                 ["alpha-quantiles", "--k", "1", "--samples", "0",
                  "--output", str(out)],
                 ["verify-siegel", "--k", "1", "--t", "1.0", "--samples", "1",
                  "--output", str(out)],
                 ["sample", "--samples", "0"] + lats):
        assert run(argv + common + ["--workers", "1"]) == 1
    # sample makes its directory only once the draws are done
    assert run(["sample", "--samples", "4", "--workers", "0"] + lats
               + common) == 1
    assert draws == []
    assert list(tmp_path.iterdir()) == []


def test_invalid_worker_environment_is_a_usage_error(tmp_path, draws,
                                                     monkeypatch, capsys):
    # LATSTAB_WORKERS gives the --workers default, so an invalid value is
    # rejected like the flag's, before any draw
    out = tmp_path / "x.csv"
    common = ["--n", "3", "--sampler", "gm", "--samples", "4", "--seed", "1"]
    for bad, message in (("0", "workers must be at least 1, got 0"),
                         ("-2", "workers must be at least 1, got -2"),
                         ("abc", "LATSTAB_WORKERS: invalid int value: 'abc'"),
                         ("2.5", "LATSTAB_WORKERS: invalid int value: '2.5'")):
        monkeypatch.setenv("LATSTAB_WORKERS", bad)
        for argv in (["stability-mass", "--output", str(out)],
                     ["verify-siegel", "--k", "1", "--t", "1.0",
                      "--output", str(out)],
                     ["alpha-quantiles", "--k", "1", "--output", str(out)],
                     ["sample", "--output-dir", str(tmp_path / "lats")]):
            capsys.readouterr()
            assert run(argv + common) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        # the flag's own error for the same count reads the same
        if bad.lstrip("-").isdigit():
            monkeypatch.delenv("LATSTAB_WORKERS")
            assert run(["stability-mass", "--output", str(out)] + common
                       + ["--workers", bad]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
    assert draws == []
    assert not out.exists()
    assert list(tmp_path.rglob("*.json")) == []
    # an explicit --workers still overrides the variable
    monkeypatch.setenv("LATSTAB_WORKERS", "abc")
    assert run(["stability-mass", "--output", str(out)] + common
               + ["--workers", "1"]) == 0


def test_covrad_budget_error_names_the_stream(tmp_path, monkeypatch, capsys):
    real = stability.covrad_lower

    def tight_on_stream_1(lattice, trials, rng_seed):
        budget = 1 if rng_seed == 6 + 7919 * 1 else DEFAULT_BUDGET
        return real(lattice, trials, rng_seed, budget)

    monkeypatch.setattr(stability, "covrad_lower", tight_on_stream_1)
    out = tmp_path / "c.csv"
    assert run(["covrad", "--n", "3", "--sampler", "gm", "--lattices", "3",
                "--trials", "5", "--seed", "6", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: enumeration exceeded its node budget of 1 "
                        r"after \d+ nodes, on the lattice of stream 1\n", err)


def test_covrad_refuses_large_n(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["covrad", "--n", "7", "--sampler", "gm", "--lattices", "1",
                "--trials", "1", "--seed", "1", "--output", str(out)]) == 3


def test_covrad_command(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["covrad", "--n", "2", "--sampler", "gm", "--lattices", "2",
                "--trials", "20", "--seed", "6", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[5]) > 0


COVRAD_GOLDEN = ["covrad", "--n", "4", "--sampler", "gm", "--lattices", "3",
                 "--trials", "50", "--seed", "7"]


def test_covrad_golden_bytes(tmp_path):
    out = tmp_path / "c.csv"
    assert run(COVRAD_GOLDEN + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fda571edcc92882afa779dc6fd09390b61593e3c495bc40f5d3e66c6ac94ef05")


def test_covrad_two_block_golden_bytes(tmp_path):
    # 1,100 trials: a full screening block and a partial one per lattice
    out = tmp_path / "c.csv"
    assert run(["covrad", "--n", "3", "--sampler", "gm", "--lattices", "2",
                "--trials", "1100", "--seed", "7", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "91a04262a6fd244357f970074ceea6fec8352be9de1d052fadeba6fc264f4d51")


def test_covrad_float_lattice_golden_bytes(tmp_path):
    # gauss lattices carry a dyadic exact form, not a declared integer one
    out = tmp_path / "c.csv"
    assert run(["covrad", "--n", "4", "--sampler", "gauss", "--lattices", "4",
                "--trials", "200", "--seed", "7", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "fb242733be88d7f54975097471e2f8bf5874115db82fba488359edecf31a98a9")


# CSV digests pinned at fixed seeds: a refactor must not move one byte
GOLDEN = [
    (["verify-siegel", "--n", "2", "--k", "1", "--t", "0.8", "--t", "1.0",
      "--t", "1.2", "--sampler", "exact2d", "--samples", "300", "--seed", "5"],
     "695fa6dce28d2b4b5b945ad2f69f8256b6cde2c70d7a90bb53a73b7b466fd2fc"),
    (["verify-siegel", "--n", "2", "--k", "1", "--t", "1.0",
      "--sampler", "exact2d", "--samples", "300", "--seed", "5"],
     "fa48deffe79a7248d27b63dfac4cac56b457ec83479848fa2f94f580ac5a1081"),
    (["verify-siegel", "--n", "3", "--k", "2", "--t", "0.7", "--t", "1.1",
      "--sampler", "gm", "--samples", "200", "--seed", "9"],
     "96ea2ecc044db77d569459011a5a8ba73426306923eba3e96362f8dff853ccda"),
    (["verify-siegel", "--n", "3", "--k", "2", "--t", "0.7", "--t", "1.1",
      "--sampler", "gm", "--samples", "200", "--seed", "9", "--workers", "2"],
     "96ea2ecc044db77d569459011a5a8ba73426306923eba3e96362f8dff853ccda"),
    (["stability-mass", "--n", "5", "--sampler", "gm", "--samples", "300",
      "--seed", "21"],
     "8e5e61bb2b04e61ac056f40e0e63d95c7ec830b66b651476141ed9be225ee1dc"),
    (["stability-mass", "--n", "4", "--sampler", "gauss", "--samples", "300",
      "--seed", "21"],
     "c787f498617c1edeba90a1135d6991c596acba96d70f980fde312c7f387c44fb"),
    (["alpha-quantiles", "--n", "6", "--k", "4", "--sampler", "gm",
      "--samples", "40", "--seed", "11"],
     "3a9754b8370d1dc2ca693b053762db1cd98d3c086e9d434dfd2a7538fe26618f"),
    (["alpha-quantiles", "--n", "6", "--k", "4", "--sampler", "gm",
      "--samples", "40", "--seed", "11", "--workers", "2"],
     "3a9754b8370d1dc2ca693b053762db1cd98d3c086e9d434dfd2a7538fe26618f"),
    (["alpha-quantiles", "--n", "5", "--k", "2", "--sampler", "gauss",
      "--samples", "100", "--seed", "12"],
     "4881bad8113c53fd206805b6c86c3bb8681c55e69536a6969821b55f74b46151"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[
    "siegel-n2-3t", "siegel-n2-1t", "siegel-n3-k2", "siegel-n3-k2-w2",
    "mass-n5-gm", "mass-n4-gauss", "quantiles-n6-k4-gm",
    "quantiles-n6-k4-gm-w2", "quantiles-n5-k2-gauss"])
def test_golden_bytes(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert run(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_alpha_golden_bytes(tmp_path):
    # D4 scaled to covolume 1: many exact covolume ties at every rank
    f = tmp_path / "d4.txt"
    f.write_text("4\n1 -1 0 0\n0 1 -1 0\n0 0 1 -1\n0 0 1 1\n"
                 "scale: 0.8408964152537145\n")
    out = tmp_path / "d4.json"
    assert run(["alpha", "--lattice-file", str(f), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e0c6df22fb089a948dd28518c0bf3f66e47b061e79f5f21bf4073dd0d478f5a4")


def test_covrad_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "c.csv"
    assert run(COVRAD_GOLDEN + ["--output", str(out)]) == 0
    original = out.read_bytes()
    out.write_bytes(b"clobbered\n")
    assert run(["replay", str(tmp_path / "c.csv.manifest.json")]) == 0
    assert out.read_bytes() == original


def test_degenerate_basis_is_a_usage_error(tmp_path, capsys):
    # covrad's float frame of a gm basis at p near 2^61 fails the condition
    # test, and a singular lattice file has exact determinant 0: each is
    # exit 1 with one error line
    lat = tmp_path / "singular.txt"
    lat.write_text("2\n1 2\n2 4\n")
    for args in (["covrad", "--n", "2", "--p", "2305843009213693951",
                  "--lattices", "1", "--trials", "2", "--seed", "1",
                  "--output", str(tmp_path / "x.csv")],
                 ["alpha", "--lattice-file", str(lat)]):
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), args


@pytest.mark.parametrize("n", range(2, 7))
def test_experiments_run_at_the_top_of_the_p_range(tmp_path, capsys, n):
    # gm at the largest accepted prime, 2^62 - 57, works in every experiment
    # but covrad, whose float frame of the raw rows fails the condition test
    common = ["--n", str(n), "--p", str(P_TOP), "--seed", "29"]
    for args in (["stability-mass", "--samples", "6"],
                 ["alpha-quantiles", "--k", "1", "--samples", "6"],
                 ["verify-siegel", "--k", "1", "--t", "1.0",
                  "--samples", "6"]):
        out = tmp_path / f"{args[0]}.csv"
        assert run(args + common + ["--output", str(out)]) == 0, args
        assert out.read_text().count("\n") > 1
    assert run(["covrad", "--lattices", "1", "--trials", "2"] + common
               + ["--output", str(tmp_path / "covrad.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "condition number exceeds 1e12" in err[0]


def test_cli_import_leaves_the_worker_pool_unloaded():
    # single-worker runs never start a pool, so they need not load one
    src = os.path.dirname(os.path.dirname(latstab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, latstab.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_stability_mass_reproducible_and_worker_independent(tmp_path):
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    args = ["stability-mass", "--n", "2", "--sampler", "exact2d",
            "--samples", "800", "--seed", "77"]
    assert run(args + ["--output", str(out1), "--workers", "1"]) == 0
    assert run(args + ["--output", str(out2), "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "mass.csv"
    assert run(["stability-mass", "--n", "2", "--sampler", "exact2d",
                "--samples", "500", "--seed", "3",
                "--output", str(out)]) == 0
    manifest = tmp_path / "mass.csv.manifest.json"
    assert manifest.exists()
    out.write_text("corrupted\n")
    assert run(["replay", str(manifest)]) == 0
    # replay must have rewritten the original bytes
    assert out.read_text().startswith("n,sampler,seed")


def test_replay_detects_mismatch(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["constants", "--n-max", "3", "--output", str(out)]) == 0
    manifest_path = tmp_path / "c.csv.manifest.json"
    data = json.loads(manifest_path.read_text())
    data["outputs"]["c.csv"] = "0" * 64
    manifest_path.write_text(json.dumps(data))
    assert run(["replay", str(manifest_path)]) == 4


def test_verify_siegel_command(tmp_path, capsys):
    out = tmp_path / "vs.csv"
    assert run(["verify-siegel", "--n", "2", "--k", "1", "--t", "0.8",
                "--t", "1.0", "--sampler", "exact2d", "--samples", "1500",
                "--seed", "5", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "t-scaling across thresholds" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("experiment,n,k,t,sampler")


def test_verify_siegel_singleton_warns(tmp_path, capsys):
    out = tmp_path / "vs1.csv"
    assert run(["verify-siegel", "--n", "2", "--k", "1", "--t", "1.0",
                "--sampler", "exact2d", "--samples", "600",
                "--seed", "5", "--output", str(out)]) == 0
    assert "skipped" in capsys.readouterr().out


def test_sample_command_and_manifest(tmp_path):
    outdir = tmp_path / "lattices"
    assert run(["sample", "--sampler", "gm", "--n", "2", "--samples", "3",
                "--seed", "11", "--output-dir", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("lattice_*.txt"))
    assert files == ["lattice_000000.txt", "lattice_000001.txt",
                     "lattice_000002.txt"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert len(manifest["outputs"]) == 3
    # files parse back as exact unimodular lattices
    import latstab as ls

    lat = ls.read_lattice(outdir / "lattice_000000.txt")
    assert abs(lat.covolume - 1.0) <= 1e-9
    assert lat.exact_basis is not None


def test_sample_worker_independent(tmp_path):
    # 9 samples at 2 workers is enough to take the parallel path
    args = ["sample", "--sampler", "gm", "--n", "3", "--samples", "9",
            "--seed", "4"]
    assert run(args + ["--workers", "1", "--output-dir",
                       str(tmp_path / "w1")]) == 0
    assert run(args + ["--workers", "2", "--output-dir",
                       str(tmp_path / "w2")]) == 0
    files = sorted(p.name for p in (tmp_path / "w1").glob("lattice_*.txt"))
    assert len(files) == 9
    for name in files:
        assert ((tmp_path / "w1" / name).read_bytes()
                == (tmp_path / "w2" / name).read_bytes())


def test_alpha_quantiles_command(tmp_path):
    out = tmp_path / "q.csv"
    assert run(["alpha-quantiles", "--n", "2", "--k", "1", "--sampler",
                "exact2d", "--samples", "300", "--seed", "13",
                "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("q01,q05,q25,q50,q75,q95,q99,alpha_bar_known")


def test_seed_generated_and_printed(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert run(["stability-mass", "--n", "2", "--sampler", "exact2d",
                "--samples", "50", "--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "generated seed:" in printed
    # the generated seed lands in the manifest so the run can be replayed
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert isinstance(manifest["parameters"]["seed"], int)


def test_parser_built_once_workers_read_per_call(tmp_path, monkeypatch):
    # the parser is shared by every call in a process, and the
    # LATSTAB_WORKERS default is still read at each call
    from latstab.cli import build_parser
    assert build_parser() is build_parser()
    out = tmp_path / "m.csv"
    argv = ["stability-mass", "--n", "2", "--sampler", "exact2d",
            "--samples", "4", "--seed", "1", "--output", str(out)]
    for env, want in (("3", 3), (None, 1)):
        if env is None:
            monkeypatch.delenv("LATSTAB_WORKERS", raising=False)
        else:
            monkeypatch.setenv("LATSTAB_WORKERS", env)
        assert run(argv) == 0
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["parameters"]["workers"] == want
    # more workers than samples allow: still serial, no pool is started
    assert run(argv + ["--workers", "5"]) == 0
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert manifest["parameters"]["workers"] == 5
