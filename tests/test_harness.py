import dataclasses
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.stats import binomtest

from spmlab import (
    DiffusionLaw,
    ExperimentConfig,
    GridSpec,
    InitialSpec,
    ModelParams,
    SolverConfig,
    build_basis,
    compare_with_bound,
    config_from_dict,
    config_from_yaml,
    make_initial,
    norm_hm1,
    run_ensemble,
    wilson_interval,
)
from spmlab.harness import ConfigError, _build_context, resolve_gamma
from spmlab.operators import norm_l2_array
from spmlab.stepper import PathFailedError, Trajectory
from spmlab.theory import BoundInputs


def base_raw(**overrides):
    raw = dict(
        grid=dict(n_interior=31),
        K=2,
        model={"rho": 1.0, "alpha": 0.5, "lambda": 1e-4},
        noise=dict(mu=[0.05, 0.02]),
        solver=dict(dt=2e-3, t_final=0.4, record_every=20),
        initial=dict(kind="eigenmode", mode=1, target_hm1_norm=0.1),
        n_paths=4,
        master_seed=17,
        checkpoints=[0.1, 0.2, 0.3, 0.4],
    )
    raw.update(overrides)
    return raw


ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    """perfbench/workloads.py, loaded from its file without changing it."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def readme_config():
    """The example config of README.md."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Example config:")[1].split("```yaml\n")[1].split("```")[0]
    return yaml.safe_load(block)


class TestConfigKeys:
    @pytest.mark.parametrize("section, dotted", [
        (None, "gamma_starts"),
        ("grid", "grid.lenght"),
        ("model", "model.lambd"),
        ("model.aux", "model.aux.slop"),
        ("noise", "noise.sigma"),
        ("solver", "solver.newton_tl"),
        ("initial", "initial.target_norm"),
    ])
    def test_unknown_key_is_named(self, section, dotted):
        raw = base_raw(model={"rho": 1.0, "alpha": 0.5, "lambda": 1e-4, "aux": {"slope": 0.0}})
        target = raw
        for name in (section.split(".") if section else []):
            target = target[name]
        target[dotted.rsplit(".", 1)[-1]] = 0
        with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(dotted)}'"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value, reason", [
        ("solver_tol", 1e-12, "no tolerance"),
        ("max_iter", 100, "no iteration budget"),
        ("aux.kind", "linear", "model.aux.slope"),
    ], ids=["solver_tol", "max_iter", "aux.kind"])
    def test_retired_model_keys_say_removed(self, key, value, reason):
        raw = base_raw()
        *parents, name = key.split(".")
        section = raw["model"]
        for parent in parents:
            section = section.setdefault(parent, {})
        section[name] = value
        with pytest.raises(ConfigError, match=f"'model.{key}' was removed: .*{reason}"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value, reason", [
        ("newton_tol", 1e-10, "tolerance is fixed"),
        ("newton_max_iter", 50, "budget is fixed"),
    ])
    def test_retired_solver_keys_say_removed(self, key, value, reason):
        """Even the values that were the defaults are rejected."""
        raw = base_raw()
        raw["solver"][key] = value
        with pytest.raises(ConfigError, match=f"'solver.{key}' was removed: .*{reason}"):
            config_from_dict(raw)

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError, match="'solver' must be a mapping"):
            config_from_dict(base_raw(solver=[1e-3, 0.4]))

    def test_known_configs_still_parse(self):
        workloads = load_workloads()
        raws = [readme_config(), base_raw()]
        raws += [c for name in workloads.NAMES for toy in (False, True)
                 for c in workloads.make_workload(name, 17, toy=toy).configs]
        assert len(raws) == 2 + 2 * 8
        for raw in raws:
            config_from_dict(raw)
        assert config_from_dict(readme_config()).n_paths == 400


def test_readme_lists_the_package_api():
    """README's Library example lists, by module, exactly the names that
    `import spmlab` exposes."""
    import spmlab

    text = (ROOT / "README.md").read_text()
    listing = text.split("## Library example")[1].split("```")[0]
    listed = {
        f"spmlab.{module}": set(re.findall(r"`(\w+)`", names))
        for module, names in re.findall(r"- `spmlab\.(\w+)`: (.*?)(?=\n- |\n\n)", listing, re.S)
    }
    exposed = {}
    for name, value in vars(spmlab).items():
        if not name.startswith("_") and not isinstance(value, type(spmlab)):
            exposed.setdefault(value.__module__, set()).add(name)
    assert listed == exposed


class TestConfig:
    def test_roundtrip_yaml(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(base_raw()))
        cfg = config_from_yaml(p)
        assert cfg.grid.n_interior == 31
        assert cfg.model.lam == 1e-4
        assert cfg.mu == (0.05, 0.02)

    def test_lambda_takes_its_default(self):
        """model.lambda may be left out, like every key but rho and alpha:
        it is then ModelParams.lam's default."""
        raw = base_raw()
        del raw["model"]["lambda"]
        assert config_from_dict(raw).model.lam == 1e-4

    def test_aux_slope(self):
        model = {"rho": 1.0, "alpha": 0.5, "lambda": 1e-4, "aux": {"slope": 0.4}}
        assert config_from_dict(base_raw(model=model)).model.aux_slope == 0.4
        assert config_from_dict(base_raw()).model.aux_slope == 0.0

    def test_missing_section(self):
        raw = base_raw()
        del raw["solver"]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_mu_length_mismatch(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(noise=dict(mu=[0.05])))

    def test_unsorted_checkpoints(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(checkpoints=[0.3, 0.2]))

    @pytest.mark.parametrize(
        "t_final, dt, checkpoint, refused",
        [
            (1e-15, 1e-16, 5e-13, True),  # 500 horizons out, within an absolute 1e-12
            (1e6, 1e5, np.nextafter(1e6, np.inf), False),  # one ulp, within the 1e-9 ratio
        ],
        ids=["500x-past-tiny-horizon", "one-ulp-past-1e6"],
    )
    def test_checkpoint_beyond_horizon(self, t_final, dt, checkpoint, refused):
        """A checkpoint may pass t_final by the relative tolerance with which
        step_time reads it, and by nothing more."""
        raw = base_raw(
            solver=dict(dt=dt, t_final=t_final, record_every=1), checkpoints=[checkpoint]
        )
        if refused:
            with pytest.raises(ConfigError, match=r"checkpoints must lie in \(0, t_final\]"):
                config_from_dict(raw)
        else:
            cfg = config_from_dict(raw)
            assert cfg.solver.step_time(checkpoint) == t_final

    def test_custom_values_wrong_length(self):
        # the grid has 31 interior nodes
        with pytest.raises(ConfigError, match="3 values for 31"):
            config_from_dict(base_raw(initial=dict(kind="custom", values=[0.1, 0.2, 0.3])))

    def test_custom_values_not_finite(self):
        values = [0.1] * 30 + [float("nan")]
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(base_raw(initial=dict(kind="custom", values=values)))

    @pytest.mark.parametrize("mode", [0, 32])
    def test_initial_mode_out_of_range(self, mode):
        # the grid has 31 interior nodes
        initial = dict(kind="eigenmode", mode=mode, target_hm1_norm=0.1)
        with pytest.raises(ConfigError, match=f"mode {mode} outside 1..31"):
            config_from_dict(base_raw(initial=initial))

    @pytest.mark.parametrize(
        "solver",
        [
            dict(newton_tol=0.0),
            dict(newton_tol=-1e-10),
            dict(newton_tol=float("nan")),
            dict(newton_tol=float("inf")),
            dict(newton_max_iter=0),
        ],
    )
    def test_bad_newton_settings(self, solver):
        """The Newton settings are no longer config keys, whatever their value."""
        raw = base_raw()
        raw["solver"].update(solver)
        with pytest.raises(ConfigError, match=r"'solver\.newton_\w+' was removed"):
            config_from_dict(raw)

    def test_defaults_come_from_the_records(self):
        """A key that the config leaves out takes its record's default."""
        cfg = config_from_dict(base_raw())
        assert cfg.grid == GridSpec(31)
        assert cfg.model == ModelParams(DiffusionLaw(1.0, 0.5), lam=1e-4)
        assert cfg.solver == SolverConfig(dt=2e-3, t_final=0.4, record_every=20)
        assert cfg.gamma is None
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        assert cfg.convergence_lambdas == defaults["convergence_lambdas"]

    @pytest.mark.parametrize("key, value, expected", [
        ("n_paths", "2", 2),
        ("n_paths", 2.0, 2),
        ("n_paths", "2.0", 2),
        ("master_seed", 2**70 + 1, 2**70 + 1),
        ("master_seed", str(2**70 + 1), 2**70 + 1),
    ], ids=["str", "float", "float-str", "2**70+1", "2**70+1-str"])
    def test_integer_forms(self, key, value, expected):
        """Integers may be written as strings or integral floats, and are
        read exactly: 2**70 + 1 is not a float."""
        got = getattr(config_from_dict(base_raw(**{key: value})), key)
        assert type(got) is int and got == expected

    @pytest.mark.parametrize("dotted", [
        "grid.length", "model.rho", "model.lambda", "solver.extinction_eps",
        "initial.target_hm1_norm", "gamma", "noise.mu", "checkpoints",
    ])
    def test_bools_are_not_reals(self, dotted):
        """float(True) is 1.0, but a bool is no real-valued setting, in a
        list neither; a number written as a string still is one."""
        *parents, key = dotted.split(".")
        raw = base_raw()
        section = raw
        for parent in parents:
            section = section[parent]
        good = section.get(key)
        section[key] = [True, *good[1:]] if isinstance(good, list) else True
        with pytest.raises(ConfigError, match=f"'{dotted}'.*True is not a real number"):
            config_from_dict(raw)
        # grid.length and gamma default to None; 1 is a value both take
        section[key] = [str(v) for v in good] if isinstance(good, list) else str(good or 1)
        config_from_dict(raw)

    @pytest.mark.parametrize("length", [1, 1.0, "1", "1.0"])
    def test_unit_length_is_the_default(self, length):
        """grid.length parses at 1, in any spelling, to the config without it."""
        raw = base_raw(grid=dict(n_interior=31, length=length))
        assert config_from_dict(raw) == config_from_dict(base_raw())

    @pytest.mark.parametrize(
        "length", [2.0, 0.5, "2", 0.0, -1.0, float("nan"), float("inf"), True]
    )
    def test_other_lengths_name_the_map(self, length):
        """The domain is (0, 1): any other length is a config error that
        names the map from (0, L)."""
        raw = base_raw(grid=dict(n_interior=31, length=length))
        with pytest.raises(ConfigError, match=r"'grid\.length'.*x = L\*y, t = L\^2\*s"):
            config_from_dict(raw)

    @pytest.mark.parametrize("initial", [
        dict(kind="bump", mode=7, target_hm1_norm=0.1),
        dict(kind="custom", mode=2, values=[0.1] * 31),
    ])
    def test_mode_only_for_eigenmodes(self, initial):
        """A mode other than the default 1 would be ignored by a bump or
        custom start, so it is refused; mode 1 parses."""
        with pytest.raises(ConfigError, match=f"takes no mode, got {initial['mode']}"):
            config_from_dict(base_raw(initial=initial))
        config_from_dict(base_raw(initial=dict(initial, mode=1)))

    @pytest.mark.parametrize("field", ["K", "n_paths", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_library_counts_are_integers(self, field, value):
        """A record built in the library has no config reader before it: at
        n_paths=True one path ran and summary.json read "n_paths": true, and
        2.5 died in range() or numpy's SeedSequence."""
        cfg = config_from_dict(base_raw(K=1, noise=dict(mu=[0.05])))
        with pytest.raises(ConfigError, match=f"{field} must be an integer, got {value!r}"):
            dataclasses.replace(cfg, **{field: value})
        assert getattr(dataclasses.replace(cfg, **{field: np.int64(1)}), field) == 1

    @pytest.mark.parametrize("mode", [1.5, 1.0, True])
    def test_library_mode_is_an_integer(self, mode):
        """mode=1.5 passed the range check and died indexing the basis."""
        with pytest.raises(ConfigError, match=f"mode must be an integer, got {mode!r}"):
            InitialSpec(kind="eigenmode", mode=mode, target_hm1_norm=0.1)

    def test_yaml_exponent_without_dot(self, tmp_path):
        """PyYAML reads 2e-3 (no dot) as a string; it is still a number."""
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump(base_raw()).replace("dt: 0.002", "dt: 2e-3"))
        assert yaml.safe_load(p.read_text())["solver"]["dt"] == "2e-3"
        assert config_from_yaml(p).solver.dt == 2e-3

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_raw(model={"rho": 1.0, "alpha": 1.2, "lambda": 1e-4}))

    def test_yaml_top_level_must_be_a_mapping(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text(yaml.safe_dump([base_raw()]))
        with pytest.raises(ConfigError, match="does not contain a mapping"):
            config_from_yaml(p)


class TestMakeInitial:
    def test_eigenmode_scaling(self, grid, basis):
        spec = InitialSpec(kind="eigenmode", mode=1, target_hm1_norm=0.1)
        x0 = make_initial(spec, grid, basis)
        assert norm_hm1(x0) == pytest.approx(0.1, rel=1e-10)
        # |c*e1|_{-1} = c/sqrt(lam1) so c = 0.1*sqrt(lam1)
        c = 0.1 * np.sqrt(basis.eigenvalues[0])
        np.testing.assert_allclose(x0, c * basis.mode(1), rtol=1e-10)

    def test_target_doubling(self, grid, basis):
        a = make_initial(InitialSpec("bump", target_hm1_norm=0.1), grid, basis)
        b = make_initial(InitialSpec("bump", target_hm1_norm=0.2), grid, basis)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_custom_passthrough(self, grid, basis):
        vals = tuple(float(i) for i in range(grid.n_interior))
        x0 = make_initial(InitialSpec("custom", values=vals), grid, basis)
        np.testing.assert_array_equal(x0, vals)

    @pytest.mark.parametrize("spec", [
        InitialSpec("eigenmode", mode=2, target_hm1_norm=0.1),
        InitialSpec("bump", target_hm1_norm=0.1),
        InitialSpec("custom", values=(0.1,) * 63),
    ], ids=lambda spec: spec.kind)
    def test_state_is_read_only(self, grid, basis, spec):
        """Every path of an ensemble starts from the one state make_initial
        builds, so it cannot be written through; an eigenmode start does
        not share the basis's memory either."""
        x0 = make_initial(spec, grid, basis)
        assert x0.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            x0[0] = 1.0
        assert not np.shares_memory(x0, basis.modes)

    def test_invalid_kind(self):
        with pytest.raises(ConfigError):
            InitialSpec(kind="noise")

    def test_missing_target(self):
        with pytest.raises(ConfigError):
            InitialSpec(kind="eigenmode")

    @pytest.mark.parametrize("kind", ["eigenmode", "bump"])
    def test_values_rejected_where_ignored(self, kind):
        with pytest.raises(ConfigError, match="takes no values"):
            InitialSpec(kind, values=(0.1,), target_hm1_norm=0.1)

    def test_target_rejected_for_custom(self):
        # custom values pass through unscaled, so a target would be dropped
        with pytest.raises(ConfigError, match="drop target_hm1_norm"):
            InitialSpec("custom", values=(0.1,), target_hm1_norm=0.1)


class TestWilson:
    def test_against_scipy(self):
        for k, n in [(0, 50), (3, 50), (25, 50), (49, 50), (50, 50), (400, 400)]:
            lo, hi = wilson_interval(k, n)
            ci = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
            assert lo == pytest.approx(ci.low, abs=1e-10)
            assert hi == pytest.approx(ci.high, abs=1e-10)

    def test_contains_point_estimate(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (123, 400)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError, match="n must be positive"):
            wilson_interval(0, 0)


@pytest.fixture(scope="module")
def tiny_summary():
    cfg = config_from_dict(base_raw(n_paths=8))
    return cfg, run_ensemble(cfg, workers=1)


class TestRunEnsemble:
    def test_single_quiet_path_step_cdf(self):
        cfg = config_from_dict(
            base_raw(n_paths=1, noise=dict(mu=[0.0, 0.0]))
        )
        summary = run_ensemble(cfg)
        tau = summary.tau_hats[0]
        assert tau is not None
        expected = [1.0 if tau <= cfg.solver.step_time(t) else 0.0 for t in summary.checkpoints]
        assert summary.empirical_cdf == expected

    def test_path_dead_on_a_checkpoints_step(self, monkeypatch):
        """A path extinct at step 1050 of dt = 1e-4 is extinct by 0.105,
        though the step's time 1050*1e-4 is an ulp above 0.105."""
        cfg = config_from_dict(base_raw(
            n_paths=1,
            gamma=1.0,
            solver=dict(dt=1e-4, t_final=0.278, record_every=5),
            checkpoints=[0.070, 0.105, 0.140],
        ))
        tau = 1050 * cfg.solver.dt
        assert tau > 0.105

        def dead_at_step_1050(x0, config, model, noise, seed, gamma_check):
            hm1 = np.where(config.record_times < tau, 0.1, 0.0)
            return Trajectory(
                hm1_norms=hm1, lp_norms=hm1, min_values=hm1, max_values=hm1,
                seed=seed, tau_hat=tau, coercivity_violations=0,
            )

        monkeypatch.setattr("spmlab.harness.run_path", dead_at_step_1050)
        assert run_ensemble(cfg).empirical_cdf == [0.0, 1.0, 1.0]

    def test_initial_state_left_unchanged(self, monkeypatch):
        """run_ensemble's paths all start from one x0, so none may write to
        it. The state is handed over writeable here, so that a write in
        place would show in its bytes instead of raising."""
        import spmlab.harness as hmod

        build, handed = hmod._build_context, []

        def writeable_context(config):
            noise, x0, inputs = build(config)
            assert x0.flags.writeable is False
            handed.append(x0.copy())
            return noise, handed[-1], inputs

        monkeypatch.setattr(hmod, "_build_context", writeable_context)
        cfg = config_from_dict(base_raw(n_paths=2))
        expected = make_initial(cfg.initial, cfg.grid, build_basis(cfg.grid, cfg.K))
        summary = run_ensemble(cfg, workers=1)
        assert summary.extinct_fraction == 1.0
        assert len(handed) == 1 and handed[0].flags.writeable
        assert handed[0].tobytes() == expected.tobytes()

    def test_zero_start_all_extinct(self, grid):
        cfg = config_from_dict(
            base_raw(
                n_paths=2,
                initial=dict(kind="custom", values=[0.0] * 31),
            )
        )
        summary = run_ensemble(cfg)
        assert summary.empirical_cdf == [1.0] * len(summary.checkpoints)
        assert summary.extinct_fraction == 1.0

    def test_gamma_whose_power_underflows(self):
        """At gamma = 1e-250, gamma^(1+alpha) underflows to 0, so the
        noise-free time is +inf: the ensemble completes with a bound of 0 at
        every checkpoint (the division by 0 used to end it after every path
        had run)."""
        summary = run_ensemble(config_from_dict(base_raw(n_paths=2, gamma=1e-250)))
        assert [row.bound for row in summary.comparison.rows] == [0.0] * 4
        assert summary.comparison.overall_pass

    def test_gamma_override_makes_no_estimate(self, monkeypatch):
        """A gamma override is used as given: the set-up makes no estimate,
        so a benchmark that passes its set-up's estimate as an override
        counts one estimate per config."""
        cfg = config_from_dict(base_raw(n_paths=2))
        cfg = dataclasses.replace(cfg, gamma=resolve_gamma(cfg))

        def refuse(*args):
            raise AssertionError("estimate_gamma called under a gamma override")

        monkeypatch.setattr("spmlab.harness.estimate_gamma", refuse)
        summary = run_ensemble(cfg, workers=1)
        assert summary.gamma_used == cfg.gamma
        assert summary.extinct_fraction == 1.0

    def test_seed_reproducibility(self, tiny_summary):
        cfg, s1 = tiny_summary
        s2 = run_ensemble(cfg, workers=1)
        assert s1.to_json() == s2.to_json()

    def test_worker_count_invariance(self, tiny_summary):
        cfg, s1 = tiny_summary
        s2 = run_ensemble(cfg, workers=2)
        assert s1.to_json() == s2.to_json()

    def test_cdf_nondecreasing(self, tiny_summary):
        _, s = tiny_summary
        assert all(
            b >= a for a, b in zip(s.empirical_cdf, s.empirical_cdf[1:])
        )

    def test_summary_json_fields(self, tiny_summary):
        _, s = tiny_summary
        d = json.loads(s.to_json())
        for key in (
            "checkpoints", "empirical_cdf", "wilson_lo", "wilson_hi",
            "supermartingale_report", "extinct_fraction",
            "n_failed", "gamma_used", "c_star", "comparison",
        ):
            assert key in d
        # the summary is a function of the config and the seed, each number
        # stated once: a row's checkpoint and CDF value are the lists' entries
        assert "timestamp" not in d
        rows = d["comparison"]["rows"]
        assert len(rows) == len(d["checkpoints"])
        assert all(set(row) == {"bound", "passed"} for row in rows)

    def test_summary_json_echoes_no_input(self, tiny_summary):
        """summary.json holds what the ensemble computed and no copy of its
        inputs: the path count is len(tau_hats), the extinction threshold is
        the config's and the comparison's slack is a constant."""
        _, s = tiny_summary
        d = json.loads(s.to_json())
        assert set(d) == {
            "checkpoints", "empirical_cdf", "wilson_lo", "wilson_hi",
            "supermartingale_report", "extinct_fraction", "n_failed", "gamma_used",
            "c_star", "x0_norm_hm1", "tau_hats", "positivity_violations",
            "coercivity_violations", "diagnostics", "comparison",
        }
        assert set(d["comparison"]) == {"rows", "overall_pass"}

    def test_numpy_path_count_serializes(self, tiny_summary):
        """A numpy n_paths is an integer; summary.json is the same bytes."""
        cfg, s = tiny_summary
        summary = run_ensemble(dataclasses.replace(cfg, n_paths=np.int64(8)))
        assert summary.to_json() == s.to_json()

    def test_newton_count_matches_traced_benchmark(self):
        """The acceptance workload of perfbench at seed 17: its traced run
        counts 13199 Newton solves over these 10 paths (stepper.newton_iters).
        No Newton step is halved there, the worst accepted stage ends just
        under its tolerance, and every tau_hat is the one stored in
        perfbench/reference/acceptance.json."""
        cfg = config_from_dict(base_raw(
            grid=dict(n_interior=255),
            solver=dict(dt=1e-4, t_final=0.278, record_every=5),
            n_paths=10,
            checkpoints=[0.035, 0.070, 0.105, 0.140, 0.175, 0.210, 0.245, 0.278],
            gamma=2.0,  # gamma enters only the coercivity count, not the paths
        ))
        summary = run_ensemble(cfg, workers=2)
        diagnostics = json.loads(summary.to_json())["diagnostics"]
        assert diagnostics == {
            "newton_iters": 13199, "halvings": 0,
            "backtracks": 0, "worst_residual": 0.9902137641313996,
        }
        reference = json.loads((ROOT / "perfbench" / "reference" / "acceptance.json").read_text())
        (ensemble,) = reference["ensembles"]
        assert list(summary.tau_hats) == ensemble["tau_hats"]

    def test_coercivity_check_can_fail(self):
        """Every step satisfies |X|_{1+alpha} >= gamma |X|_{-1} at the
        estimated gamma, and a gamma 0.1% above the estimate is caught."""
        cfg = config_from_dict(base_raw(n_paths=4))
        summary = run_ensemble(cfg)
        assert summary.coercivity_violations == 0
        inflated = run_ensemble(dataclasses.replace(cfg, gamma=1.001 * summary.gamma_used))
        assert inflated.coercivity_violations > 0

    def test_interval_shrinks_with_n(self):
        # quadrupling n_paths should at least halve the mean half-width at a
        # checkpoint with nondegenerate counts
        lo1, hi1 = wilson_interval(3, 25)
        lo2, hi2 = wilson_interval(12, 100)
        assert (hi2 - lo2) <= 0.55 * (hi1 - lo1)

    def test_failure_cap(self, monkeypatch):
        import spmlab.harness as hmod

        def broken(config, noise, x0, gamma, path_index):
            return Trajectory(
                *(np.zeros(1) for _ in range(4)),
                seed=(config.master_seed, path_index), failure="boom",
            )

        monkeypatch.setattr(hmod, "_run_one", broken)
        cfg = config_from_dict(base_raw(n_paths=4))
        with pytest.raises(PathFailedError, match=r"4/4 paths failed \(cap 1%\): \['boom'\]"):
            run_ensemble(cfg, workers=1)

    def test_overflowing_kick_fails_one_path(self, monkeypatch):
        """A kick factor holding inf, at the first step of the first path,
        fails that path's stage: the path is one failure under the 1% cap,
        and the other 149 paths complete."""
        import spmlab.stepper as smod

        original, calls = smod.kick_factor, []

        def inf_once(dbeta, scaled_modes):
            f = original(dbeta, scaled_modes)
            if not calls:
                f[0] = np.inf
            calls.append(None)
            return f

        monkeypatch.setattr(smod, "kick_factor", inf_once)
        cfg = config_from_dict(base_raw(
            n_paths=150, solver=dict(dt=2e-3, t_final=0.1, record_every=10), checkpoints=[0.1],
        ))
        summary = run_ensemble(cfg, workers=1)
        assert summary.n_failed == 1 and len(summary.trajectories) == 149

    @pytest.mark.parametrize("below", [(), (1,)])
    def test_positivity_floor(self, monkeypatch, below):
        """A node counts as negative only below -1e-8 * max(1, |x0|_L2): a
        path whose minimum sits exactly on that floor passes, one ulp under
        it fails. |x0|_L2 is about 3.1 here, so the max picks the norm."""
        import spmlab.harness as hmod

        cfg = config_from_dict(base_raw(
            n_paths=4, gamma=2.0,
            initial=dict(kind="eigenmode", mode=1, target_hm1_norm=1.0),
        ))
        x0 = make_initial(cfg.initial, cfg.grid, build_basis(cfg.grid, cfg.K))
        assert norm_l2_array(x0) > 1.0
        floor = -1e-8 * max(1.0, float(norm_l2_array(x0)))

        def at_floor(config, noise, x0, gamma, path_index):
            low = np.nextafter(floor, -np.inf) if path_index in below else floor
            return Trajectory(
                *(np.zeros(2) for _ in range(2)), np.array([0.0, low]), np.zeros(2),
                seed=(config.master_seed, path_index), coercivity_violations=0,
            )

        monkeypatch.setattr(hmod, "_run_one", at_floor)
        summary = run_ensemble(cfg, workers=1)
        assert summary.positivity_violations == len(below)


class TestCompareWithBound:
    def test_clamped_bound_always_passes(self, tiny_summary):
        _, s = tiny_summary
        inputs = BoundInputs(
            x_norm_hm1=1e6, alpha=0.5, rho=1.0, gamma=1.0, c_star=s.c_star
        )
        rep = compare_with_bound(s, inputs)
        assert rep.overall_pass
        assert all(r.bound == 0.0 for r in rep.rows)

    def test_extinct_ensemble_passes(self, tiny_summary):
        cfg, s = tiny_summary
        _, _, inputs = _build_context(cfg)
        rep = compare_with_bound(s, inputs)
        assert rep.overall_pass

    def test_summary_carries_its_comparison(self, tiny_summary):
        cfg, s = tiny_summary
        _, _, inputs = _build_context(cfg)
        assert s.comparison == compare_with_bound(s, inputs)

    def test_unreachable_bound_fails(self, tiny_summary):
        _, s = tiny_summary
        # absurdly large gamma forces the bound to 1 everywhere; empirical
        # cannot be that high at the earliest checkpoint
        inputs = BoundInputs(
            x_norm_hm1=s.x0_norm_hm1, alpha=0.5, rho=1e12, gamma=1e6, c_star=0.0
        )
        rep = compare_with_bound(s, inputs)
        assert not rep.rows[0].passed
