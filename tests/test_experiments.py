"""Config parsing, run directories, determinism, and the CLI surface."""

import hashlib
import inspect
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from nlslab.cli import main
from nlslab.config import (ConfigError, config_hash, fmt, parse_config_text,
                           validate)
from nlslab import experiments
from nlslab.experiments import (_interval_modes, bilinear_packet_norms, identity_tolerance,
                                linear_l6_plane_wave_check)
from nlslab.geometry import _smooth5_length


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

    def test_threads_must_be_positive(self):
        for command in ("strichartz", "census"):
            with pytest.raises(ConfigError, match="threads"):
                validate(command, {"threads": 0})

    def test_threads_only_for_strichartz(self):
        assert validate("strichartz", {"threads": 2})["threads"] == 2
        for command in ("simulate", "energy-track", "census", "verify", "budget",
                        "almost-conservation"):
            assert validate(command, {"threads": 1})["threads"] == 1
            with pytest.raises(ConfigError, match="threads"):
                validate(command, {"threads": 2})

    def test_threads_error_exits_one(self, tmp_path):
        assert main(["budget", "--threads", "2", "--out", str(tmp_path / "b")]) == 1
        assert main(["strichartz", "--threads", "0", "--out", str(tmp_path / "s")]) == 1
        assert not (tmp_path / "b").exists() and not (tmp_path / "s").exists()

    def test_cached_parser_parses_as_a_fresh_one(self, tmp_path, monkeypatch):
        # main's parser is built once per process; in-process calls with
        # different subcommands and flags read what a fresh parser reads
        from nlslab import cli

        calls = [["census", "--seed", "3", "--out", str(tmp_path / "c")],
                 ["budget", "--out", str(tmp_path / "b")],
                 ["strichartz", "--threads", "2", "--config", str(tmp_path / "s.cfg")],
                 ["census", "--out", str(tmp_path / "c2")]]
        (tmp_path / "s.cfg").write_text("samples = 2\n")
        got = []
        monkeypatch.setattr(cli, "validate", lambda command, raw: (command, dict(raw)))
        monkeypatch.setattr(cli, "RUNNERS", {name: lambda cfg, out: got.append((cfg, out)) or 0
                                             for name in cli.RUNNERS})
        monkeypatch.delenv("NLSLAB_OUT", raising=False)
        for argv in calls:
            assert main(argv) == 0
        assert cli.build_parser() is cli.build_parser()
        fresh = cli.build_parser.__wrapped__
        for argv, (cfg, out) in zip(calls, got):
            args = fresh().parse_args(argv)
            assert vars(cli.build_parser().parse_args(argv)) == vars(args)
            assert cfg[0] == args.command and out == cli.resolve_out_dir(args.out)
            assert cfg[1].get("seed") == args.seed and cfg[1].get("threads") == args.threads
        assert got[0][0][1] == {"seed": 3} and got[3][0][1] == {}
        assert got[2][0][1] == {"samples": 2, "threads": 2}

    def test_strichartz_rejects_d_and_kind(self, tmp_path):
        # the probe is the 1-D bilinear one; it reads neither key
        for text in ("d = 2\n", "kind = bilinear\n"):
            with pytest.raises(ConfigError, match="unknown config keys"):
                validate("strichartz", parse_config_text(text))
            cfgfile = tmp_path / "s.cfg"
            cfgfile.write_text(text)
            assert main(["strichartz", "--config", str(cfgfile),
                         "--out", str(tmp_path / "s")]) == 1
        assert not (tmp_path / "s").exists()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            validate("census", {"bogus.key": 1})

    def test_defaults_and_lists(self):
        cfg = validate("census", {"n_grid": "4, 8", "kmax": 6})
        assert cfg["n_grid"] == [4.0, 8.0]
        assert cfg["kmax"] == 6
        assert cfg["seed"] == 0
        assert "gap_factor" not in cfg
        assert validate("energy-track", {})["gap_factor"] == 4.0

    def test_every_key_is_read_by_its_runner(self):
        # a key that no runner reads would be accepted and silently ignored
        from nlslab import config, experiments
        from nlslab.cli import RUNNERS

        shared = inspect.getsource(experiments._geometry)
        for command, schema in config.SCHEMAS.items():
            source = inspect.getsource(RUNNERS[command]) + shared
            for key in set(schema) | set(config.GLOBAL_FIELDS) - {"seed", "threads"}:
                assert f'cfg["{key}"]' in source, (command, key)

    def test_hash_stable(self):
        cfg = validate("budget", {"d": 1})
        assert config_hash(cfg) == config_hash(dict(cfg))

    def test_fmt_roundtrip(self):
        assert fmt(0.1) == "0.1"
        assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0
        assert fmt(None) == ""
        assert fmt([1, 2.5]) == "(1 2.5)"
        # numpy scalars format as the Python scalars they hold
        assert fmt(np.float64(0.1)) == "0.1"
        assert fmt(np.True_) == "true"
        assert fmt(np.int64(3)) == "3"
        assert fmt((np.float64(3.0), np.float64(-1.0))) == "(3.0 -1.0)"


# an almost-conservation config whose run passes every gate (G = 2 leaves
# enough non-resonant tuples for the correction to show)
ALMOST_CONSERVATION_PASSING = ("kcut = 6\nn_grid = 1,2\nsamples = 4\nt_end = 0.1\n"
                               "gap_factor = 2\n")


class TestRunners:
    def test_budget_run(self, tmp_path):
        code = main(["budget", "--out", str(tmp_path / "b")])
        assert code == 0
        man = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert abs(man["guards"]["zero_crossing"] - 1.0 / 3.0) < 1e-12
        assert (tmp_path / "b" / "summary.txt").exists()
        # the default s grid holds numpy floats; the cells are plain numbers
        rows = [r.split(",") for r in
                (tmp_path / "b" / "budget.csv").read_text().splitlines()[1:]]
        assert len(rows) == 16
        for r in rows:
            np.array(r[:-1], dtype=float)  # raises on a cell like np.float64(0.2)
            assert r[-1] in ("true", "false")

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

    def test_verify_rejects_sigma_cases(self, tmp_path, capsys):
        # sigma6 and sigma4 tested m <= 1, which holds by construction, and
        # are no longer cases: naming one is a configuration error
        cfgfile = tmp_path / "v.cfg"
        cfgfile.write_text("cases = sigma6\n")
        assert main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "v")]) == 1
        assert "'sigma6'" in capsys.readouterr().err

    def test_verify_all_cases_pinned(self, tmp_path):
        cfgfile = tmp_path / "v.cfg"
        cfgfile.write_text("cases = i,ii,iii,iv,nonresonant,2d-resonant,2d-nonresonant\n"
                           "n_grid = 4\ngap_grid = 4\nkmax_per_n = 2\n")
        code = main(["verify", "--config", str(cfgfile), "--out", str(tmp_path / "v")])
        assert code == 0
        body = (tmp_path / "v" / "verify.csv").read_bytes()
        rows = [r.split(",") for r in body.decode().splitlines()[1:]]
        assert len(rows) == 7 and all(all(r[:7]) for r in rows)  # only flags empty
        assert hashlib.sha256(body).hexdigest() == (
            "0aab8707b07cae00ad7623246a5f0482956848c8e1ce3ea139264bda2092783f")

    # census.csv digests: 1-D at the defaults (kmax 8), two 1-D configs
    # whose float sums would move with a changed summation order of M, and
    # 2-D at two gaps
    @pytest.mark.parametrize("text, digest", [
        ("", "e5fb57618b7a13e593505bcdcdac30ba494545052e21f6156df9d1226e5aae0a"),
        ("kmax = 10\ngap_grid = 3,4\n",
         "549900efc5993cf340510b1121b9b0411776eceb2f28a036508ba3283f45dde5"),
        ("kmax = 12\nn_grid = 2,5\ngap_grid = 6\ns = 0.3\n",
         "36436b59898c9480cfd086eda10e1575bf9304e07ec27217d24bc10ab1e7a4e8"),
        ("d = 2\nkmax = 3\ngap_grid = 2,4\n",
         "bbfff85d542dbd1e34804ac01b0a8628187ae6cd9821cbede21042f749e2d14e"),
    ], ids=["1d-defaults", "1d-k10-gaps3,4", "1d-k12-gap6-s0.3", "2d-k3-gaps2,4"])
    def test_census_run_pinned(self, text, digest, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(text)
        code = main(["census", "--config", str(cfgfile), "--out", str(tmp_path / "c")])
        assert code == 0
        guards = json.loads((tmp_path / "c" / "manifest.json").read_text())["guards"]
        assert guards["violations"] == 0
        body = (tmp_path / "c" / "census.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest

    def test_census_2d_default_s(self, tmp_path):
        # an unset s is the dimension's own default: 0.6 in 2-D
        digests = []
        for name, text in (("default", ""), ("explicit", "s = 0.6\n")):
            cfgfile = tmp_path / f"{name}.cfg"
            cfgfile.write_text("d = 2\nkmax = 3\nn_grid = 2\n" + text)
            out = tmp_path / name
            assert main(["census", "--config", str(cfgfile), "--out", str(out)]) == 0
            man = json.loads((out / "manifest.json").read_text())
            assert man["config"]["s"] == 0.6
            digests.append(hashlib.sha256((out / "census.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_census_rejects_d_outside_one_two(self, tmp_path):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("d = 3\nkmax = 3\nn_grid = 2\n")
        assert main(["census", "--config", str(cfgfile), "--out", str(tmp_path / "c")]) == 1
        assert not (tmp_path / "c").exists()

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

    def test_energy_track_gate_can_fail(self, tmp_path, monkeypatch):
        import nlslab.experiments as experiments

        residual = experiments.energy_identity_residual

        def inflated(*args, **kwargs):
            out = residual(*args, **kwargs)
            out["residual"] = out["residual"] * 1e6
            return out

        monkeypatch.setattr(experiments, "energy_identity_residual", inflated)
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text("kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                           "energy.n_cut = 2\ndata.modes = 4\n")
        code = main(["energy-track", "--config", str(cfgfile),
                     "--out", str(tmp_path / "e")])
        assert code == 2
        guards = json.loads((tmp_path / "e" / "manifest.json").read_text())["guards"]
        assert guards["residual_max"] > guards["residual_tol"] > 0.0

    def test_identity_tolerance_terms(self):
        t = np.linspace(0.0, 0.8, 9)                  # h = 0.1
        y = 3.0 * t**2 + t**4                         # D2 = 6h^2 + ..., D4 = 24h^4
        energy = 2.0 + np.array([0, 1, -3, 2, 0, 0, 0, 0, 0]) * 1e-9
        e_i1 = np.full(9, -5.0)
        d2 = np.max(np.abs(np.diff(y, 2)))
        quadrature = 0.1 * d2 / 12 + 4 * 0.1 * (24 * 0.1**4) / 90
        expected = 4.0 * (quadrature + 3e-9 + 1e-13 * 9 * 5.0)
        assert identity_tolerance(t, y, energy, e_i1) == pytest.approx(expected, rel=1e-9)
        # three samples: no fourth difference
        assert identity_tolerance(t[:3], y[:3], energy[:3], e_i1[:3]) == pytest.approx(
            4.0 * (0.1 * abs(y[2] - 2 * y[1] + y[0]) / 12 + 3e-9 + 3e-13 * 5.0), rel=1e-9)

    def test_almost_conservation_run(self, tmp_path):
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text("kcut = 6\nn_grid = 2,4\nsamples = 4\nt_end = 0.05\n")
        code = main(["almost-conservation", "--config", str(cfgfile),
                     "--out", str(tmp_path / "a")])
        rows = (tmp_path / "a" / "almost_conservation.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["2.0", "4.0"]
        guards = json.loads((tmp_path / "a" / "manifest.json").read_text())["guards"]
        assert code == (0 if guards["monotone"] and guards["corrected_below_raw"] else 2)

    @pytest.mark.parametrize("command, text", [
        ("energy-track", "kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                         "energy.n_cut = 2\ndata.modes = 4\n"),
        ("almost-conservation", "kcut = 4\nn_grid = 2\nsamples = 4\nt_end = 0.05\n"),
        ("almost-conservation", "kcut = 4\nn_grid = 2,3\nsamples = 4\nt_end = 0.05\n"),
        ("almost-conservation", "kcut = 4\nn_grid = 2,3,4\nsamples = 4\nt_end = 0.05\n")])
    def test_manifest_records_walk_cost(self, tmp_path, monkeypatch, command, text):
        # one classification pass per run, whatever the length of the N
        # grid, and what the run's two phases took
        import nlslab.energies as energies

        classified = []
        verdicts = energies._lattice_verdicts

        def counting(lat, idx, G, blocks=None):
            classified.append(len(idx))
            return verdicts(lat, idx, G, blocks)

        monkeypatch.setattr(energies, "_lattice_verdicts", counting)
        cfgfile = tmp_path / "w.cfg"
        cfgfile.write_text(text)
        main([command, "--config", str(cfgfile), "--out", str(tmp_path / "w")])
        guards = json.loads((tmp_path / "w" / "manifest.json").read_text())["guards"]
        assert guards["budget_tuples"] == 9 ** 5
        assert sum(classified) == guards["walk_tuples"]
        assert 0 < guards["walk_tuples"] < guards["budget_tuples"]
        # the wall seconds of the integration and of the walk
        assert all(isinstance(guards[k], float) and guards[k] > 0 for k in ("evolve_s", "walk_s"))

    @pytest.mark.parametrize("command, text", [
        ("energy-track", "kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                         "energy.n_cut = 2\ndata.modes = 4\n"),
        ("almost-conservation", "kcut = 4\nn_grid = 2,3\nsamples = 4\nt_end = 0.05\n")])
    def test_one_orbit_build_per_run(self, tmp_path, monkeypatch, command, text):
        import nlslab.energies as energies

        builds = []
        init = energies._Orbits.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(energies._Orbits, "__init__", counting)
        cfgfile = tmp_path / "w.cfg"
        cfgfile.write_text(text)
        main([command, "--config", str(cfgfile), "--out", str(tmp_path / "w")])
        assert len(builds) == 1

    def test_almost_conservation_streamed_matches_table_path(self, tmp_path, monkeypatch):
        import csv

        import nlslab.experiments as experiments
        from nlslab.energies import correction_tables, e_i1, gamma_sums
        from nlslab.geometry import norm
        from nlslab.smoothing import SmoothingSymbol, apply_I

        trajectories = []
        evolve = experiments.evolve

        def recording(*args, **kwargs):
            trajectories.append(evolve(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(experiments, "evolve", recording)
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text("kcut = 6\nn_grid = 2,4\nsamples = 4\nt_end = 0.05\n")
        main(["almost-conservation", "--config", str(cfgfile), "--out", str(tmp_path / "a")])
        with open(tmp_path / "a" / "almost_conservation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        (traj,) = trajectories
        samples = traj.samples
        w = samples[0].geometry.measure_weight ** 5
        assert [float(r["N"]) for r in rows] == [2.0, 4.0]
        for r in rows:
            # reference per N: a stored float64 sigma~ table, one sum over the
            # samples (defocusing, kappa = 1) and E_I^1 sample by sample
            N = float(r["N"])
            tabs = correction_tables(samples[0], N, 0.5)
            corr = np.real(w * gamma_sums(tabs.sigma_tilde, [[f] * 6 for f in samples]))
            e1 = np.array([e_i1(f, N, 0.5) for f in samples])
            e2 = e1 + corr
            h1_six = norm(apply_I(samples[0], SmoothingSymbol(N, 0.5)), "hs", s=1.0) ** 6
            ref = {"sup_increment_e_i2": np.max(np.abs(e2 - e2[0])),
                   "sup_increment_e_i1": np.max(np.abs(e1 - e1[0])),
                   "correction_magnitude": np.max(np.abs(corr)),
                   "boundary_ratio": abs(corr[0]) / h1_six}
            for key, y in ref.items():
                assert abs(float(r[key]) - y) <= 1e-12 * abs(y), key
            assert float(r["horizon"]) == traj.times[-1] and r["flag"] == ""

    def test_almost_conservation_samples_whole_strides(self, tmp_path):
        # kcut 6 and t_end 0.05 are 18 steps of the default dt = 0.1/36; four
        # samples give stride 4, so the run integrates 16 steps and samples
        # every fourth
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text("kcut = 6\nn_grid = 2,4\nsamples = 4\nt_end = 0.05\n")
        main(["almost-conservation", "--config", str(cfgfile), "--out", str(tmp_path / "a")])
        rows = (tmp_path / "a" / "almost_conservation.csv").read_text().splitlines()
        header = rows[0].split(",")
        horizons = {r.split(",")[header.index("horizon")] for r in rows[1:]}
        assert horizons == {repr(16 * (0.1 / 36))}

    def test_almost_conservation_needs_three_samples(self, tmp_path):
        # one stride spans the horizon: two samples, which the identity refuses
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text("kcut = 4\nn_grid = 2\nsamples = 1\nt_end = 0.02\n")
        assert main(["almost-conservation", "--config", str(cfgfile),
                     "--out", str(tmp_path / "a")]) == 1
        assert not (tmp_path / "a").exists()

    def test_almost_conservation_gate_can_fail(self, tmp_path, monkeypatch):
        import csv

        import nlslab.experiments as experiments

        residual = experiments.energy_identity_residual

        def inflated(*args, **kwargs):
            out = residual(*args, **kwargs)
            out["residual"] = out["residual"] * 1e6
            return out

        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text(ALMOST_CONSERVATION_PASSING)
        for name in ("exact", "inflated"):
            if name == "inflated":
                monkeypatch.setattr(experiments, "energy_identity_residual", inflated)
            code = main(["almost-conservation", "--config", str(cfgfile),
                         "--out", str(tmp_path / name)])
            with open(tmp_path / name / "almost_conservation.csv", newline="") as fh:
                above = [float(r["residual_max"]) > float(r["residual_tol"]) > 0.0
                         for r in csv.DictReader(fh)]
            guards = json.loads((tmp_path / name / "manifest.json").read_text())["guards"]
            assert guards["monotone"] and guards["corrected_below_raw"]
            assert (code, guards["identity_ok"], any(above)) == (
                (0, True, False) if name == "exact" else (2, False, True))

    @pytest.mark.parametrize("command, text", [
        ("energy-track", "stride = 1\ndata.mass = 13\ndata.modes = 0\nenergy.n_cut = 1\n"),
        ("almost-conservation", "samples = 400\nmass = 13\nn_grid = 1\n"),
    ], ids=["energy-track", "almost-conservation"])
    def test_aborted_trajectory_fails(self, command, text, tmp_path, monkeypatch):
        # focusing data of mass 13 at dt 0.05 blow up at step 4; with the
        # identity gate opened, only the abort can fail the run
        monkeypatch.setattr(experiments, "identity_tolerance", lambda *a: float("inf"))
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("kcut = 3\nsign = focusing\ndt = 0.05\nt_end = 20\n" + text)
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "r")])
        guards = json.loads((tmp_path / "r" / "manifest.json").read_text())["guards"]
        assert guards["aborted"]
        if command == "almost-conservation":
            assert guards["monotone"] and guards["corrected_below_raw"]
            assert guards["identity_ok"]
        assert code == 2
        summary = (tmp_path / "r" / "summary.txt").read_text()
        assert "TRAJECTORY ABORTED at step 4 " in summary

    @pytest.mark.parametrize("command, text", [
        ("energy-track", "stride = 1\ndata.mass = 1000\ndata.modes = 0\n"),
        ("almost-conservation", "samples = 400\nmass = 1000\nn_grid = 1\n"),
    ], ids=["energy-track", "almost-conservation"])
    def test_abort_before_third_sample_fails(self, command, text, tmp_path):
        # focusing data of mass 1000 at dt 0.05 blow up at step 1, which
        # leaves one sample and no identity to check: the run still writes
        # its manifest and summary and fails the invariant check, not the
        # configuration
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("kcut = 3\nsign = focusing\ndt = 0.05\nt_end = 20\n" + text)
        code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "r")])
        guards = json.loads((tmp_path / "r" / "manifest.json").read_text())["guards"]
        assert code == 2
        assert guards["aborted"] and guards["failed_step"] == 1
        summary = (tmp_path / "r" / "summary.txt").read_text()
        assert "TRAJECTORY ABORTED at step 1 " in summary

    @pytest.mark.filterwarnings("error")
    def test_early_abort_raises_no_overflow_warning(self, tmp_path):
        # focusing data of mass 100 at dt 0.05 blow up at step 2: the mass
        # and energy of the last finite sample overflow, and the run still
        # fails quietly with exit 2 and the abort line
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("kcut = 3\nsign = focusing\ndt = 0.05\nt_end = 20\nstride = 1\n"
                           "data.modes = 0\ndata.mass = 100\n")
        code = main(["energy-track", "--config", str(cfgfile), "--out", str(tmp_path / "r")])
        assert code == 2
        summary = (tmp_path / "r" / "summary.txt").read_text()
        assert "TRAJECTORY ABORTED at step 2 " in summary

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

    @pytest.mark.parametrize("command, text", [
        ("census", "kmax = 8\n"),
        ("census", "d = 2\nkmax = 3\n"),
        ("energy-track", "kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                         "energy.n_cut = 2\ndata.modes = 4\n"),
        ("almost-conservation", "kcut = 5\nn_grid = 2,4\nsamples = 4\nt_end = 0.02\n"),
    ], ids=["census-1d", "census-2d", "energy-track", "almost-conservation"])
    def test_budget_refusal_exits_one(self, command, text, tmp_path, monkeypatch):
        # a lattice over the tuple budget is refused alike everywhere: exit 1,
        # no run directory, and no trajectory integrated first
        from nlslab import experiments

        def evolve(*args, **kwargs):
            raise AssertionError("integrated an over-budget run")

        monkeypatch.setattr(experiments, "evolve", evolve)
        cfgfile = tmp_path / "b.cfg"
        cfgfile.write_text(text + "budget = 1000\n")
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()

    def test_budget_refused_before_building_sets(self, tmp_path, monkeypatch):
        # the runner's check reads the budget from the cutoff alone: no slot
        # set is built and no trajectory integrated before the refusal
        from nlslab import energies, experiments

        def refuse(*args, **kwargs):
            raise AssertionError("built or integrated past an over-budget lattice")

        monkeypatch.setattr(energies._Lattice, "_sets", refuse)
        monkeypatch.setattr(energies._Orbits, "_sets", refuse)
        monkeypatch.setattr(experiments, "evolve", refuse)
        cfgfile = tmp_path / "b.cfg"
        cfgfile.write_text("kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                           "data.modes = 4\nbudget = 1000\n")
        assert main(["energy-track", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, text, key", [
        # 36 steps at the defaults (dt = 0.1 / 6^2, t_end 0.1): stride 5
        # leaves a short last interval
        ("energy-track", "stride = 5\n", "stride"),
        # one sample per run: t = 0 and the final step, two samples
        ("almost-conservation", "samples = 1\n", "samples"),
    ], ids=["energy-track-stride", "almost-conservation-one-sample"])
    def test_bad_sample_grid_refused_before_integrating(self, command, text, key, tmp_path,
                                                        monkeypatch, capsys):
        # the identity needs three or more uniform samples: a grid that
        # cannot give them is refused with exit 1, before any step is taken
        from nlslab import experiments

        def evolve(*args, **kwargs):
            raise AssertionError("integrated a run whose sample grid is refused")

        monkeypatch.setattr(experiments, "evolve", evolve)
        cfgfile = tmp_path / "s.cfg"
        cfgfile.write_text(text)
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert key in err and "t_end=" in err and "dt=" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("grid", ["8,4", "4,4"])
    def test_almost_conservation_n_grid_must_increase(self, grid, tmp_path, monkeypatch,
                                                       capsys):
        # the gates read the grid in order (monotone in N, corrected below
        # raw at the last N): a grid that does not increase strictly is
        # refused with exit 1, before any step is taken
        from nlslab import experiments

        def evolve(*args, **kwargs):
            raise AssertionError("integrated a run whose n_grid is refused")

        monkeypatch.setattr(experiments, "evolve", evolve)
        cfgfile = tmp_path / "a.cfg"
        cfgfile.write_text(f"kcut = 10\nn_grid = {grid}\nt_end = 0.05\nsamples = 10\n")
        assert main(["almost-conservation", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r")]) == 1
        assert "n_grid" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_energy_track_more_modes_than_lattice_refused(self, tmp_path, capsys):
        # 1-D kcut 2 has 5 modes, fewer than the default data.modes = 6
        cfgfile = tmp_path / "e.cfg"
        cfgfile.write_text("kcut = 2\n")
        assert main(["energy-track", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "data.modes=6" in err and "kcut=2" in err and " 5 " in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command, text, key", [
        ("almost-conservation", "kcut = 4\nn_grid = 2\nt_end = 0.02\nsamples = 0\n", "samples"),
        ("almost-conservation", "kcut = 4\nn_grid =\nt_end = 0.02\n", "n_grid"),
        ("census", "kmax = 3\nn_grid =\n", "n_grid"),
        ("census", "kmax = 3\ngap_grid =\n", "gap_grid"),
        ("verify", "cases =\n", "cases"),
        ("verify", "cases = ii\nn_grid =\n", "n_grid"),
        ("verify", "cases = ii\ngap_grid =\n", "gap_grid"),
        ("verify", "cases = ii\nn_grid = 4\nkmax_per_n = 0\n", "kmax_per_n"),
        ("verify", "cases = ii\nn_grid = 4\nkmax_per_n = 512\ngap_grid = 4\n", "past 2047"),
        ("strichartz", "m_grid =\n", "m_grid"),
        ("strichartz", "m_grid = 0,4\nsamples = 2\n", "m_grid"),
        ("strichartz", "m_grid = 2\nsamples = 0\n", "samples"),
        ("strichartz", "m_grid = 2\nn_freq = 0\n", "n_freq"),
        ("strichartz", "m_grid = 2\nn_freq = -5\n", "n_freq"),
        ("strichartz", "m_grid = 2\nlambda = 0\n", "lambda"),
    ], ids=["samples-zero", "almost-conservation-empty-n-grid", "census-empty-n-grid",
            "census-empty-gap-grid", "verify-empty-cases", "verify-empty-n-grid",
            "verify-empty-gap-grid", "verify-kmax-per-n-zero", "verify-kmax-past-key-limit",
            "strichartz-empty-m-grid",
            "strichartz-m-zero", "strichartz-samples-zero", "strichartz-n-freq-zero",
            "strichartz-n-freq-negative", "strichartz-lambda-zero"])
    def test_bad_samples_or_n_grid_exit_one(self, command, text, key, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(text)
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "r")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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


# Every subcommand at a reduced config, with the exit code its runner
# documents, read back from the guards it wrote into the manifest.
SMOKE = {
    "budget": ("s_grid = 0.3,0.6\n", lambda g: 0),
    "census": ("n_grid = 2\nkmax = 3\n", lambda g: 2 if g["violations"] else 0),
    "simulate": ("d = 2\ngamma = 0.75\nkcut = 4\nt_end = 0.004\ndt = 0.001\n"
                 "stride = 2\n", lambda g: 2 if g["aborted"] else 0),
    "energy-track": ("kcut = 4\nt_end = 0.02\ndt = 0.002\nstride = 2\n"
                     "energy.n_cut = 2\ndata.modes = 4\n",
                     lambda g: 0 if g["residual_max"] <= g["residual_tol"] else 2),
    "strichartz": ("n_freq = 32\nlambda = 4\nm_grid = 2,4\nsamples = 3\n",
                   lambda g: 0),
    "verify": ("cases = ii,2d-nonresonant\nn_grid = 4\nkmax_per_n = 1\ngap_grid = 4\n",
               lambda g: 2 if g["unstable_cases"] else 0),
    "almost-conservation": ("kcut = 5\nn_grid = 2,4\nsamples = 4\nt_end = 0.02\n",
                            lambda g: 0 if g["monotone"] and g["corrected_below_raw"]
                            else 2),
}


@pytest.mark.parametrize("command", sorted(SMOKE))
def test_cli_smoke_every_subcommand(command, tmp_path):
    from nlslab.cli import RUNNERS

    assert set(SMOKE) == set(RUNNERS)
    text, expected = SMOKE[command]
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(text)
    code = main([command, "--config", str(cfgfile), "--out", str(tmp_path / "r")])
    guards = json.loads((tmp_path / "r" / "manifest.json").read_text())["guards"]
    assert code == expected(guards)
    if command != "almost-conservation":
        assert code == 0
    if command == "energy-track":
        assert 0.0 < guards["residual_max"] <= guards["residual_tol"]
    assert (tmp_path / "r" / "summary.txt").exists()


# -- the strichartz packet draw ----------------------------------------------------


def test_smooth5_length_is_minimal():
    limit = 6000
    smooth = np.zeros(limit + 1, dtype=bool)
    for a in range(14):
        for b in range(9):
            for c in range(6):
                n = 2 ** a * 3 ** b * 5 ** c
                if n <= limit:
                    smooth[n] = True
    nxt = np.empty(limit + 1, dtype=int)
    following = limit + 1
    for n in range(limit, 0, -1):
        if smooth[n]:
            following = n
        nxt[n] = following
    for n in range(1, 5001):
        assert _smooth5_length(n) == nxt[n], n
    assert _smooth5_length(2049) == 2160


def _convolution_draws(M, n_freq, lam, draws, rng, coherent, dtype=np.complex64):
    """The packet draw as three FFTs: the product's coefficients by a
    power-of-two padded convolution, then their l2 norm per time row."""
    T = lam / n_freq
    k1 = _interval_modes(-1.5 * M, -0.5 * M, lam)
    k2 = _interval_modes(0.5 * M, 1.5 * M, lam)
    L = 2 * np.pi * lam
    n_t = int(min(4096, max(96, np.ceil(5 * M * M * T))))
    t = np.linspace(0.0, T, n_t)
    pad = 1 << int(np.ceil(np.log2(len(k1) + len(k2))))
    phase1 = np.exp(-1j * np.outer(t, k1**2)).astype(dtype)
    phase2 = np.exp(-1j * np.outer(t, k2**2)).astype(dtype)
    out = np.empty(draws)
    for i in range(draws):
        if coherent:
            a = 1 + 0.2 * (rng.standard_normal(len(k1)) + 1j * rng.standard_normal(len(k1)))
            b = 1 + 0.2 * (rng.standard_normal(len(k2)) + 1j * rng.standard_normal(len(k2)))
        else:
            a = np.exp(2j * np.pi * rng.random(len(k1)))
            b = np.exp(2j * np.pi * rng.random(len(k2)))
        a = (a / np.sqrt(L * np.sum(np.abs(a) ** 2))).astype(dtype)
        b = (b / np.sqrt(L * np.sum(np.abs(b) ** 2))).astype(dtype)
        fa = np.fft.fft(a[None, :] * phase1, n=pad, axis=1)
        fb = np.fft.fft(b[None, :] * phase2, n=pad, axis=1)
        conv = np.fft.ifft(fa * fb, axis=1)[:, : len(k1) + len(k2) - 1]
        sq = L * np.sum(np.abs(conv).astype(np.float64) ** 2, axis=1)
        out[i] = np.sqrt(np.trapezoid(sq, dx=T / (n_t - 1)))
    return out


def _whole_array_draws(M, n_freq, lam, draws, rng, coherent, dtype=np.complex64):
    """The Parseval packet draw on all time rows at once: the same
    arithmetic as ``bilinear_packet_norms`` without its row blocks."""
    T = lam / n_freq
    k1 = _interval_modes(-1.5 * M, -0.5 * M, lam)
    k2 = _interval_modes(0.5 * M, 1.5 * M, lam)
    L = 2 * np.pi * lam
    n_t = int(min(4096, max(96, np.ceil(5 * M * M * T))))
    t = np.linspace(0.0, T, n_t)
    pad = _smooth5_length(len(k1) + len(k2) - 1)
    phase1 = np.exp(-1j * np.outer(t, k1**2)).astype(dtype)
    phase2 = np.exp(-1j * np.outer(t, k2**2)).astype(dtype)
    out = np.empty(draws)
    for i in range(draws):
        if coherent:
            a = 1 + 0.2 * (rng.standard_normal(len(k1)) + 1j * rng.standard_normal(len(k1)))
            b = 1 + 0.2 * (rng.standard_normal(len(k2)) + 1j * rng.standard_normal(len(k2)))
        else:
            a = np.exp(2j * np.pi * rng.random(len(k1)))
            b = np.exp(2j * np.pi * rng.random(len(k2)))
        a = (a / np.sqrt(L * np.sum(np.abs(a) ** 2))).astype(dtype)
        b = (b / np.sqrt(L * np.sum(np.abs(b) ** 2))).astype(dtype)
        fa = np.fft.fft(a[None, :] * phase1, n=pad, axis=1, norm="ortho")
        fb = np.fft.fft(b[None, :] * phase2, n=pad, axis=1, norm="ortho")
        prod = fa * fb
        prod = prod.view(prod.real.dtype)
        sq = (L * pad) * np.einsum("ij,ij->i", prod, prod, dtype=np.float64)
        out[i] = np.sqrt(np.trapezoid(sq, dx=T / (n_t - 1)))
    return out


# (M, n_freq, lambda, _DRAW_CHUNK_BYTES or None for the module's): the first
# runs 30-row blocks over n_t = 320 rows (pad 2160), the others 96 rows in
# blocks of 2 (pad 25, 1 KiB) and of 1
CHUNKED_DRAWS = [(16, 256.0, 64.0, None), (3, 32.0, 4.0, 1 << 10), (3, 32.0, 4.0, 1)]


@pytest.mark.parametrize("M, n_freq, lam, chunk", CHUNKED_DRAWS,
                         ids=["bench-m16", "seven-rows", "one-row"])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("coherent", [True, False])
def test_row_blocks_bit_identical_to_whole_array(M, n_freq, lam, chunk, dtype, coherent,
                                                 monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(experiments, "_DRAW_CHUNK_BYTES", chunk)
    args = (M, n_freq, lam, 3)
    got = bilinear_packet_norms(*args, np.random.default_rng(5), coherent, dtype=dtype)
    ref = _whole_array_draws(*args, np.random.default_rng(5), coherent, dtype=dtype)
    assert np.array_equal(got, ref)


def test_draw_memory_is_phases_plus_row_blocks():
    # one M = 16 draw at the bench's n_freq and lambda holds one phase array
    # and a few complex64 row blocks, however many draws it makes (the
    # whole-array kernel traced 36-47 MB here; two phase arrays and
    # complex128 blocks 9.1-10.0 MB)
    M, n_freq, lam = 16, 256.0, 64.0
    n_t = int(np.ceil(5 * M * M * lam / n_freq))
    modes = len(_interval_modes(-1.5 * M, -0.5 * M, lam))
    bound = n_t * modes * np.dtype(np.complex64).itemsize + 4 * experiments._DRAW_CHUNK_BYTES
    for draws in (1, 4):
        tracemalloc.start()
        try:
            bilinear_packet_norms(M, n_freq, lam, draws, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (draws, peak, bound)


@pytest.mark.parametrize("M", [2, 4, 8])
@pytest.mark.parametrize("coherent", [True, False])
def test_parseval_draw_matches_convolution(M, coherent):
    args = (M, 64.0, 16.0, 4)
    got = bilinear_packet_norms(*args, np.random.default_rng(3), coherent)
    ref = _convolution_draws(*args, np.random.default_rng(3), coherent)
    assert np.max(np.abs(got - ref) / ref) <= 1e-6
    exact = bilinear_packet_norms(*args, np.random.default_rng(3), coherent,
                                  dtype=np.complex128)
    ref = _convolution_draws(*args, np.random.default_rng(3), coherent,
                             dtype=np.complex128)
    assert np.max(np.abs(exact - ref) / ref) <= 1e-12


@pytest.mark.parametrize("M, n_freq, lam", [(2, 64.0, 16.0), (8, 64.0, 16.0), (16, 256.0, 64.0)])
@pytest.mark.parametrize("coherent", [True, False])
def test_single_precision_draws_match_double(M, n_freq, lam, coherent):
    # complex64 packets and FFTs, with row sums in double, against complex128
    args = (M, n_freq, lam, 3)
    single = bilinear_packet_norms(*args, np.random.default_rng(8), coherent)
    double = bilinear_packet_norms(*args, np.random.default_rng(8), coherent,
                                   dtype=np.complex128)
    assert np.max(np.abs(single - double) / double) <= 1e-6


@pytest.mark.parametrize("lam", [1.0, 3.3, 4.0, 17.5, 64.0])
def test_second_interval_is_the_first_negated_and_reversed(lam):
    # so the second packet's phases are the first's reversed, bit for bit
    t = np.linspace(0.0, 0.37, 7)
    for M in (1, 2, 3, 4, 5, 6, 7, 8, 16, 32):
        k1 = _interval_modes(-1.5 * M, -0.5 * M, lam)
        k2 = _interval_modes(0.5 * M, 1.5 * M, lam)
        assert k2.tobytes() == (-k1[::-1]).tobytes(), (M, lam)
        phase1 = np.exp(-1j * np.outer(t, k1 ** 2)).astype(np.complex64)
        phase2 = np.exp(-1j * np.outer(t, k2 ** 2)).astype(np.complex64)
        assert phase2.tobytes() == np.ascontiguousarray(phase1[:, ::-1]).tobytes(), (M, lam)


@pytest.mark.parametrize("coherent", [True, False])
def test_quad_gap_is_the_trapezoid_gap_at_twice_the_step(coherent):
    # each draw's squared norm per time row from the product's coefficients
    # (a direct convolution per row, in double), integrated over [0, t_m]
    # (m the last even row) at step h and at 2h
    M, n_freq, lam, draws = 3, 32.0, 4.0, 3
    got = bilinear_packet_norms(M, n_freq, lam, draws, np.random.default_rng(6), coherent,
                                dtype=np.complex128)
    rng = np.random.default_rng(6)
    T = lam / n_freq
    k1 = _interval_modes(-1.5 * M, -0.5 * M, lam)
    k2 = _interval_modes(0.5 * M, 1.5 * M, lam)
    L = 2 * np.pi * lam
    n_t = int(min(4096, max(96, np.ceil(5 * M * M * T))))
    t = np.linspace(0.0, T, n_t)
    m = n_t - 1 if (n_t - 1) % 2 == 0 else n_t - 2
    h = T / (n_t - 1)
    for i in range(draws):
        if coherent:
            a = 1 + 0.2 * (rng.standard_normal(len(k1)) + 1j * rng.standard_normal(len(k1)))
            b = 1 + 0.2 * (rng.standard_normal(len(k2)) + 1j * rng.standard_normal(len(k2)))
        else:
            a = np.exp(2j * np.pi * rng.random(len(k1)))
            b = np.exp(2j * np.pi * rng.random(len(k2)))
        a = a / np.sqrt(L * np.sum(np.abs(a) ** 2))
        b = b / np.sqrt(L * np.sum(np.abs(b) ** 2))
        sq = np.array([L * np.sum(np.abs(np.convolve(a * np.exp(-1j * s * k1 ** 2),
                                                     b * np.exp(-1j * s * k2 ** 2))) ** 2)
                       for s in t])
        fine = np.trapezoid(sq[:m + 1], dx=h)
        coarse = np.trapezoid(sq[:m + 1:2], dx=2 * h)
        assert got.quad_gap[i] == pytest.approx(abs(fine - coarse) / fine, rel=1e-6)
        assert got[i] == pytest.approx(np.sqrt(np.trapezoid(sq, dx=h)), rel=1e-12)
    assert 0.0 < np.max(got.quad_gap) < 1e-2
