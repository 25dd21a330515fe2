"""Config parsing, run directories, determinism, and the CLI surface."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from nlslab.cli import main
from nlslab.config import (ConfigError, config_hash, fmt, parse_config_text,
                           validate)
from nlslab.experiments import linear_l6_plane_wave_check


class TestConfig:
    def test_flat_text_parsing(self):
        text = """
        # comment line
        seed = 3
        census.unused = nope    # trailing comment
        gap_factor = 4.5
        flag = true
        name = hello
        """
        out = parse_config_text(text)
        assert out == {"seed": 3, "census.unused": "nope", "gap_factor": 4.5,
                       "flag": True, "name": "hello"}

    def test_json_mirror(self):
        out = parse_config_text(json.dumps({"seed": 7, "kmax": 4}))
        assert out == {"seed": 7, "kmax": 4}

    def test_duplicate_and_malformed_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2")
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("just words")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            validate("census", {"bogus.key": 1})

    def test_defaults_and_lists(self):
        cfg = validate("census", {"n_grid": "4, 8", "kmax": 6})
        assert cfg["n_grid"] == [4.0, 8.0]
        assert cfg["kmax"] == 6
        assert cfg["seed"] == 0
        assert cfg["gap_factor"] == 4.0

    def test_hash_stable(self):
        cfg = validate("budget", {"d": 1})
        assert config_hash(cfg) == config_hash(dict(cfg))

    def test_fmt_roundtrip(self):
        assert fmt(0.1) == "0.1"
        assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0
        assert fmt(None) == ""
        assert fmt([1, 2.5]) == "(1 2.5)"


class TestRunners:
    def test_budget_run(self, tmp_path):
        code = main(["budget", "--out", str(tmp_path / "b")])
        assert code == 0
        man = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert abs(man["guards"]["zero_crossing"] - 1.0 / 3.0) < 1e-12
        assert (tmp_path / "b" / "budget.csv").exists()
        assert (tmp_path / "b" / "summary.txt").exists()

    def test_census_run_and_exit_code(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("n_grid = 2\nkmax = 3\n")
        code = main(["census", "--config", str(cfgfile), "--out", str(tmp_path / "c")])
        assert code == 0
        body = (tmp_path / "c" / "census.csv").read_text()
        assert body.startswith("N,gap,kmax,class,count")

    def test_verify_run_pinned(self, tmp_path):
        cfgfile = tmp_path / "v.cfg"
        cfgfile.write_text("cases = ii\nn_grid = 4\nkmax_per_n = 1\ngap_grid = 4\n")
        code = main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "v")])
        assert code == 0
        body = (tmp_path / "v" / "verify.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == (
            "aa71fffaf0961349a1055309af9a329c34bd6588a80aa63f7840270798f9e000")

    def test_simulate_checkpoint(self, tmp_path):
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text("kcut = 4\nt_end = 0.05\ndt = 0.005\nstride = 2\n")
        code = main(["simulate", "--config", str(cfgfile),
                     "--out", str(tmp_path / "s"), "--seed", "5"])
        assert code == 0
        from nlslab.geometry import load_field
        f = load_field(tmp_path / "s" / "final_state.nlsf")
        assert f.cutoff == (4,)

    def test_energy_track_csv_schema(self, tmp_path):
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text("kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                           "energy.n_cut = 2\ndata.modes = 4\n")
        code = main(["energy-track", "--config", str(cfgfile),
                     "--out", str(tmp_path / "e")])
        assert code == 0
        header = (tmp_path / "e" / "energy_track.csv").read_text().splitlines()[0]
        assert header == ("t,mass,energy,e_i1,correction,e_i2,"
                          "lambda_mbar_n,lambda_mbar_n4,residual")
        guards = json.loads((tmp_path / "e" / "manifest.json").read_text())["guards"]
        assert 0.0 <= guards["imag_leak"] < 1e-12

    def test_almost_conservation_run(self, tmp_path):
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text("kcut = 6\nn_grid = 2,4\nsamples = 4\nt_end = 0.05\n")
        code = main(["almost-conservation", "--config", str(cfgfile),
                     "--out", str(tmp_path / "a")])
        rows = (tmp_path / "a" / "almost_conservation.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["2.0", "4.0"]
        guards = json.loads((tmp_path / "a" / "manifest.json").read_text())["guards"]
        assert code == (0 if guards["monotone"] and guards["corrected_below_raw"] else 2)

    def test_determinism_identical_csv_bytes(self, tmp_path):
        cfgfile = tmp_path / "d.cfg"
        cfgfile.write_text("n_freq = 32\nlambda = 4\nm_grid = 2,4\nsamples = 5\n")
        outs = []
        for name in ("r1", "r2"):
            code = main(["strichartz", "--config", str(cfgfile),
                         "--out", str(tmp_path / name), "--seed", "9"])
            assert code == 0
            outs.append((tmp_path / name / "strichartz.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_l6_calibration_passes(self):
        cal = linear_l6_plane_wave_check(n_freq=32.0, lam=4.0)
        assert cal["error"] < 1e-10
        assert cal["measured"] == pytest.approx(cal["expected"], rel=1e-12)

    def test_l6_calibration_can_fail(self, tmp_path, monkeypatch):
        import nlslab.experiments as experiments

        norm = experiments.lp_spacetime_norm
        monkeypatch.setattr(experiments, "lp_spacetime_norm",
                            lambda *a, **k: norm(*a, **k) * (1 + 1e-6))
        cfgfile = tmp_path / "d.cfg"
        cfgfile.write_text("n_freq = 32\nlambda = 4\nm_grid = 2,4\nsamples = 5\n")
        code = main(["strichartz", "--config", str(cfgfile), "--out", str(tmp_path / "r")])
        assert code == 2
        rows = (tmp_path / "r" / "strichartz.csv").read_text().splitlines()
        l6 = [r for r in rows if r.startswith("calibration-l6")]
        assert len(l6) == 1 and l6[0].endswith("calibration-error")

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLSLAB_OUT", str(tmp_path / "env_dir"))
        code = main(["budget", "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (tmp_path / "env_dir" / "budget.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_bad_config_exit_one(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("definitely_not_a_key = 1\n")
        assert main(["census", "--config", str(cfgfile),
                     "--out", str(tmp_path / "x")]) == 1

    def test_console_entrypoint(self):
        proc = subprocess.run([sys.executable, "-m", "nlslab.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
