"""CLI: commands, exit codes, manifests, replay, worker independence."""

import hashlib
import json
import math

import pytest

from latstab.cli import main


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


def test_covrad_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "c.csv"
    assert run(COVRAD_GOLDEN + ["--output", str(out)]) == 0
    original = out.read_bytes()
    out.write_bytes(b"clobbered\n")
    assert run(["replay", str(tmp_path / "c.csv.manifest.json")]) == 0
    assert out.read_bytes() == original


def test_degenerate_basis_is_a_usage_error(tmp_path, capsys):
    # a gm basis at p near 2^61 fails the float condition check
    out = tmp_path / "x.csv"
    assert run(["stability-mass", "--n", "2", "--p", "2305843009213693951",
                "--samples", "2", "--seed", "1", "--workers", "1",
                "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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
