import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from spmlab import c_star, cli, config_from_yaml, extinction_bound, run_ensemble, run_path
from spmlab.cli import main
from spmlab.harness import _build_context, build_bound_inputs
from spmlab.stepper import ImplicitStepError
from spmlab.theory import discounted_norm

from test_harness import base_raw


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "experiment.yaml"
    p.write_text(yaml.safe_dump(base_raw(n_paths=3)))
    return p


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


class TestSimulate:
    def test_writes_trajectory(self, cfg_file, tmp_path):
        out = tmp_path / "sim"
        r = run_cli("simulate", "--config", str(cfg_file), "--out", str(out))
        assert r.exit_code == 0, r.output
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,hm1_norm,lp_norm,min,max,supermartingale"
        # one line per recorded row of path 0: its five columns and
        # M(t) = discounted_norm under the config's c*, every value exact
        cfg = config_from_yaml(cfg_file)
        noise, x0, cs = _build_context(cfg)
        traj = run_path(x0, cfg.solver, cfg.model, noise, seed=(cfg.master_seed, 0))
        alpha = cfg.model.diffusion.alpha
        times = cfg.solver.record_times
        assert cs == c_star(noise)
        m = discounted_norm(times, traj.hm1_norms, cs, alpha)
        expected = np.column_stack(
            (times, traj.hm1_norms, traj.lp_norms, traj.min_values, traj.max_values, m)
        )
        assert len(lines) == times.size + 1 > 2
        np.testing.assert_array_equal(np.loadtxt(lines[1:], delimiter=","), expected)

    def test_overflowing_initial_state_exit_2(self, tmp_path):
        """At target_hm1_norm 1e160 the initial state's x.x overflows, so the
        implicit stage's tolerance could not be finite: a config error, found
        before any step (the stage's own check is tested in test_stepper)."""
        p = tmp_path / "huge.yaml"
        p.write_text(yaml.safe_dump(base_raw(
            initial=dict(kind="eigenmode", mode=1, target_hm1_norm=1e160)
        )))
        r = run_cli("simulate", "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output
        assert "config error" in r.output
        assert "target_hm1_norm" in r.output

    def test_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("grid: {n_interior: 1}\n")
        r = run_cli("simulate", "--config", str(p))
        assert r.exit_code == 2

    def test_missing_rho_exit_2(self, tmp_path):
        """model.rho has no default: a config that leaves it out is a config
        error."""
        raw = base_raw()
        del raw["model"]["rho"]
        p = tmp_path / "no_rho.yaml"
        p.write_text(yaml.safe_dump(raw))
        r = run_cli("simulate", "--config", str(p))
        assert r.exit_code == 2, r.output
        assert "config error" in r.output and "rho" in r.output

    def test_unknown_key_exit_2(self, tmp_path):
        raw = base_raw()
        raw["solver"]["newton_tl"] = 1e-12
        p = tmp_path / "typo.yaml"
        p.write_text(yaml.safe_dump(raw))
        r = run_cli("simulate", "--config", str(p))
        assert r.exit_code == 2
        assert "solver.newton_tl" in r.output


class TestEnsemble:
    def test_outputs(self, cfg_file, tmp_path):
        out = tmp_path / "ens"
        r = run_cli("ensemble", "--config", str(cfg_file), "--out", str(out), "--workers", "1")
        assert r.exit_code == 0, r.output
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["empirical_cdf"]) == len(summary["checkpoints"])
        tau_lines = (out / "tau.csv").read_text().splitlines()
        assert tau_lines[0] == "path_index,tau_hat"
        assert len(tau_lines) == 1 + config_from_yaml(cfg_file).n_paths

    def test_seed_override_changes_nothing_but_rng(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_cli("ensemble", "--config", str(cfg_file), "--seed", "99", "--out", str(out1))
        r2 = run_cli("ensemble", "--config", str(cfg_file), "--seed", "99", "--out", str(out2))
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_summary_file_is_the_librarys_json(self, cfg_file, tmp_path):
        """summary.json is to_json() of the same ensemble, byte for byte."""
        out = tmp_path / "ens"
        r = run_cli("ensemble", "--config", str(cfg_file), "--out", str(out))
        assert r.exit_code == 0, r.output
        summary = run_ensemble(config_from_yaml(cfg_file), workers=2)
        assert (out / "summary.json").read_text() == summary.to_json() + "\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, cfg_file, tmp_path, workers):
        """run_ensemble would take either for one in-process worker."""
        out = tmp_path / "o"
        r = run_cli("ensemble", "--config", str(cfg_file), "--workers", workers, "--out", str(out))
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--workers'" in r.output
        assert not out.exists()

    def test_strict_failure_exit_4(self, tmp_path):
        # gamma override so large the bound saturates at 1 before extinction
        raw = base_raw(n_paths=3, gamma=1e6, checkpoints=[0.01, 0.4])
        p = tmp_path / "strict.yaml"
        p.write_text(yaml.safe_dump(raw))
        r = run_cli("ensemble", "--config", str(p), "--strict", "--out", str(tmp_path / "o"))
        assert r.exit_code == 4


class TestBound:
    def test_curve(self, cfg_file, tmp_path):
        out = tmp_path / "bnd"
        r = run_cli("bound", "--config", str(cfg_file), "--out", str(out))
        assert r.exit_code == 0, r.output
        lines = (out / "bound.csv").read_text().splitlines()
        assert lines[0] == "t,bound"
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_inputs_equal_the_ensembles(self, cfg_file, tmp_path, monkeypatch):
        """spmlab bound draws its curve from the inputs that run_ensemble
        compares against: one builder makes both."""
        seen = []

        def recording(t, inputs):
            seen.append(inputs)
            return extinction_bound(t, inputs)

        monkeypatch.setattr(cli, "extinction_bound", recording)
        r = run_cli("bound", "--config", str(cfg_file), "--out", str(tmp_path / "bnd"))
        assert r.exit_code == 0, r.output
        cfg = config_from_yaml(cfg_file)
        _, x0, cs = _build_context(cfg)
        summary = run_ensemble(cfg)
        assert len(seen) == 200
        assert set(seen) == {build_bound_inputs(cfg, x0, cs, summary.gamma_used)}


class TestGamma:
    def test_json_output(self, cfg_file, tmp_path):
        out = tmp_path / "g"
        r = run_cli("gamma", "--config", str(cfg_file), "--out", str(out))
        assert r.exit_code == 0, r.output
        d = json.loads((out / "gamma.json").read_text())
        assert d["value"] > 0
        assert d["alpha"] == 0.5
        assert len(d["minimizer"]) == 31


class TestConvergence:
    def test_report(self, cfg_file, tmp_path):
        out = tmp_path / "conv"
        r = run_cli("convergence", "--config", str(cfg_file), "--out", str(out))
        assert r.exit_code == 0, r.output
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "lambda_coarse,lambda_fine,sup_hm1_distance,l2l2_distance"
        assert len(lines) == 4  # three consecutive pairs from four lambdas


class TestCsvCells:
    def test_every_cell_parses_as_a_number(self, cfg_file, tmp_path):
        """Every CSV cell is a plain number (numpy >= 2 reprs its scalars as
        np.float64(...)); only tau.csv leaves a cell empty, for a path that
        did not go extinct."""
        out = tmp_path / "all"
        for command in ("simulate", "ensemble", "bound", "convergence"):
            r = run_cli(command, "--config", str(cfg_file), "--out", str(out))
            assert r.exit_code == 0, r.output
        paths = sorted(out.glob("*.csv"))
        assert [p.name for p in paths] == [
            "bound.csv", "convergence.csv", "tau.csv", "trajectory.csv"
        ]
        for path in paths:
            for line in path.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    if not (cell == "" and path.name == "tau.csv"):
                        float(cell)


class TestWrongSizedInitialValues:
    @pytest.mark.parametrize("command", ["simulate", "ensemble", "bound", "convergence"])
    def test_exit_2(self, tmp_path, command):
        # 3 custom values on a grid of 7 interior nodes
        raw = base_raw(
            grid=dict(n_interior=7),
            initial=dict(kind="custom", values=[0.1, 0.2, 0.3]),
        )
        p = tmp_path / "short.yaml"
        p.write_text(yaml.safe_dump(raw))
        r = run_cli(command, "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output


class TestOverflowingInitialState:
    """An initial state whose squared L^2 norm overflows is a config error
    for every kind of start, custom values included, which are not rescaled."""

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "bound"])
    @pytest.mark.parametrize("initial", [
        dict(kind="custom", values=[1e200] * 31),
        dict(kind="bump", target_hm1_norm=1e200),
    ])
    def test_exit_2(self, tmp_path, command, initial):
        p = tmp_path / "huge.yaml"
        p.write_text(yaml.safe_dump(base_raw(initial=initial)))
        r = run_cli(command, "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output
        assert "config error" in r.output
        assert "an initial state whose squared L^2 norm overflows" in r.output


# a grid whose h^2 underflows to 0 or whose 1/h^2 overflows, and a rho whose
# rho^(-1/alpha) overflows
PAST_THE_FLOAT_RANGE = [
    dict(grid=dict(n_interior=1e200)),
    dict(grid=dict(n_interior=1e160)),
    dict(model={"rho": 1e-300, "alpha": 0.5, "lambda": 1e-4}),
]
# grids whose h is in range but whose float64 state numpy cannot allocate
# (more than intp's maximum bytes); sizes from about 1e9 up to that limit
# would ask for gigabytes and are not run
PAST_NUMPYS_SIZE_LIMIT = [
    dict(grid=dict(n_interior=1e20)),
    dict(grid=dict(n_interior=1e100)),
]


class TestBadValues:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(initial=dict(kind="eigenmode", mode=0, target_hm1_norm=0.1)),
            dict(initial=dict(kind="eigenmode", mode=40, target_hm1_norm=0.1)),
            # an initial state whose squared norm overflows
            dict(initial=dict(kind="eigenmode", mode=1, target_hm1_norm=1e160)),
            # the removed Newton settings
            dict(solver=dict(dt=2e-3, t_final=0.4, record_every=20, newton_tol=0.0)),
            dict(solver=dict(dt=2e-3, t_final=0.4, record_every=20, newton_max_iter=0)),
            # non-finite values
            dict(gamma=float("nan")),
            dict(gamma=float("inf")),
            dict(initial=dict(kind="eigenmode", mode=1, target_hm1_norm=float("inf"))),
            dict(noise=dict(mu=[float("inf"), 0.02])),
            dict(solver=dict(dt=2e-3, t_final=float("inf"), record_every=20)),
            dict(solver=dict(dt=2e-3, t_final=0.4, extinction_eps=float("nan"))),
            dict(model={"rho": float("inf"), "alpha": 0.5, "lambda": 1e-4}),
            dict(model={"rho": 1.0, "alpha": 0.5, "lambda": float("inf")}),
            dict(model={"rho": 1.0, "alpha": 0.5, "lambda": 1e-4,
                        "aux": {"slope": float("inf")}}),
            # a negative auxiliary slope: the term slope*r would be decreasing
            dict(model={"rho": 1.0, "alpha": 0.5, "lambda": 1e-4, "aux": {"slope": -0.1}}),
            dict(checkpoints=[0.1, float("nan"), 0.4]),
            # convergence_lambdas: at least two, each positive and finite
            dict(convergence_lambdas=[float("inf"), 0.05]),
            dict(convergence_lambdas=[0.05]),
            dict(convergence_lambdas=[0.0, 0.05]),
            dict(convergence_lambdas=[-0.1, 0.05]),
            # dt must divide t_final: run_path takes round(t_final/dt) steps
            dict(solver=dict(dt=0.03, t_final=0.4, record_every=20)),
            # initial fields that the kind would ignore
            dict(initial=dict(kind="custom", values=[0.1] * 31, target_hm1_norm=123.0)),
            dict(initial=dict(kind="eigenmode", mode=1, target_hm1_norm=0.1, values=[0.1] * 31)),
            # the removed model.aux.kind
            dict(model={"rho": 1.0, "alpha": 0.5, "lambda": 1e-4,
                        "aux": {"kind": "linear", "slope": 0.4}}),
            # integers that are not integral, or are bools
            dict(n_paths=2.9),
            dict(grid=dict(n_interior=31.5)),
            dict(master_seed=17.5),
            dict(solver=dict(dt=2e-3, t_final=0.4, record_every=1.5)),
            dict(initial=dict(kind="eigenmode", mode=1.5, target_hm1_norm=0.1)),
            dict(n_paths=True),
            dict(K=2.5),
            dict(n_paths="2.5"),
            dict(n_paths=float("inf")),
            dict(n_paths=float("nan")),
            # bools where a real number goes
            dict(model={"rho": True, "alpha": 0.5, "lambda": 1e-4}),
            dict(solver=dict(dt=2e-3, t_final=0.4, extinction_eps=True)),
            # a mode that a bump start would ignore
            dict(initial=dict(kind="bump", mode=7, target_hm1_norm=0.1)),
            # a custom start without its values
            dict(initial=dict(kind="custom")),
            # K outside 1..n_interior, no paths, no checkpoints
            dict(K=0, noise=dict(mu=[])),
            dict(K=32, noise=dict(mu=[0.01] * 32)),
            dict(n_paths=0),
            dict(checkpoints=[]),
            *PAST_THE_FLOAT_RANGE,
            # c* = sum mu_k^2 lambda_k^2 overflows: found before any path runs
            dict(noise=dict(mu=[1e160, 0.0])),
            # the domain is (0, 1), so 1 is grid.length's one value
            dict(grid=dict(n_interior=31, length=2.0)),
            dict(grid=dict(n_interior=31, length=0.5)),
            *PAST_NUMPYS_SIZE_LIMIT,
        ],
    )
    def test_exit_2(self, tmp_path, overrides):
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(base_raw(**{"n_paths": 3, **overrides})))
        r = run_cli("ensemble", "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output
        assert "config error" in r.output

    @pytest.mark.parametrize("command, overrides", [
        *((c, o) for c in ("simulate", "bound", "gamma", "convergence")
          for o in PAST_THE_FLOAT_RANGE),
        *((c, dict(noise=dict(mu=[1e160, 0.0]))) for c in ("bound", "simulate", "convergence")),
        *((c, o) for c in ("simulate", "bound", "gamma", "convergence")
          for o in PAST_NUMPYS_SIZE_LIMIT),
    ])
    def test_past_the_float_range_exit_2_from_every_command(self, tmp_path, command, overrides):
        """The cases test_exit_2 gives ensemble, for the other commands that
        read the value; c* is checked where every command that builds the
        noise builds it."""
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(base_raw(**overrides)))
        r = run_cli(command, "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output
        assert "config error" in r.output


class TestNumericalFailure:
    """Every numerical failure leaves through one path: the command raises
    it inside the error context, which prints it and exits 3."""

    @pytest.mark.parametrize("command, flags", [
        ("simulate", []),
        ("ensemble", ["--workers", "1"]),
        ("convergence", []),
    ])
    def test_failed_stage_exit_3(self, cfg_file, tmp_path, monkeypatch, command, flags):
        def failing(*args, **kwargs):
            raise ImplicitStepError(1.0)

        monkeypatch.setattr("spmlab.stepper._drift_substeps", failing)
        r = run_cli(command, "--config", str(cfg_file), *flags, "--out", str(tmp_path / "o"))
        assert r.exit_code == 3, r.output
        assert "numerical failure:" in r.output
        assert "implicit solve stalled at residual 1.000e+00" in r.output

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "convergence"])
    @pytest.mark.parametrize("mu", [[1e150, 0.0], [1e140, 5e139]])
    def test_overflowing_kick_exit_3(self, tmp_path, command, mu):
        """c* is finite, but the kicked state's squared norm overflows within
        a few steps (and, with a mode that changes sign, its held kick's
        u.A^-1 u is inf - inf): the stage's finiteness check ends the path,
        and no overflow or invalid-value warning is raised on the way there,
        which pytest turns into errors."""
        p = tmp_path / "kick.yaml"
        p.write_text(yaml.safe_dump(base_raw(n_paths=3, noise=dict(mu=mu))))
        r = run_cli(command, "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 3, r.output
        assert "non-finite right-hand side norm" in r.output


class TestNegativeSeed:
    """numpy's SeedSequence refuses a negative seed, so it is a config error."""

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "convergence"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_exit_2(self, tmp_path, command, where):
        p = tmp_path / "seed.yaml"
        p.write_text(yaml.safe_dump(base_raw(n_paths=3, master_seed=-1 if where == "config" else 17)))
        flag = ["--seed", "-1"] if where == "flag" else []
        r = run_cli(command, "--config", str(p), *flag, "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output
        assert "master_seed must be >= 0" in r.output


class TestMissingConfig:
    def test_nonexistent_file(self):
        r = run_cli("simulate", "--config", "/does/not/exist.yaml")
        assert r.exit_code != 0


class TestMalformedYaml:
    @pytest.mark.parametrize("command", ["simulate", "gamma"])
    def test_exit_2(self, tmp_path, command):
        p = tmp_path / "broken.yaml"
        p.write_text("grid: {n_interior: 31\nK: [\n")
        r = run_cli(command, "--config", str(p), "--out", str(tmp_path / "o"))
        assert r.exit_code == 2, r.output
        assert "not valid YAML" in r.output
