"""Tests for strict YAML run-configuration parsing and overrides."""
from pathlib import Path

import pytest
import yaml

from axiswirl.config import (
    ConfigError,
    RunConfig,
    apply_override,
    parse_config,
    serialize_config,
)


def test_empty_document_gives_defaults():
    cfg = parse_config("")
    assert cfg.grid.nr == 64
    assert cfg.solver.cfl == 0.4
    assert cfg.solver.dt is None
    assert cfg.data.kind == "vortex_ring_swirl"
    assert cfg.output.directory == "out"
    assert cfg.sweep == {}


def test_partial_sections_merge_with_defaults():
    cfg = parse_config("grid:\n  nr: 128\n  nz: 96\n")
    assert cfg.grid.nr == 128
    assert cfg.grid.nz == 96
    assert cfg.grid.r_max == 4.0


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="unknown key gird"):
        parse_config("gird:\n  nr: 4\n")


def test_unknown_section_key_names_full_path():
    with pytest.raises(ConfigError, match="unknown key grid.nx"):
        parse_config("grid:\n  nx: 4\n")


def test_invariants_mu_is_unknown_key():
    # the viscosity has one home, solver.mu
    with pytest.raises(ConfigError, match="unknown key invariants.mu"):
        parse_config("invariants:\n  mu: 1.0\n")


def test_solver_poisson_max_iter_is_unknown_key():
    # the projection is one direct solve, with no iteration cap to set
    with pytest.raises(ConfigError, match="unknown key solver.poisson_max_iter"):
        parse_config("solver:\n  cfl: 0.4\n  poisson_max_iter: 50\n")


def test_invariants_scaling_lambda_is_unknown_key():
    # validate's zoom check runs at the fixed factor 2, and the suite's other
    # gates are constants too: no config can loosen them
    for key in ("scaling_lambda", "energy_tol", "max_principle_tol", "divergence_factor"):
        with pytest.raises(ConfigError, match=f"unknown key invariants.{key}"):
            parse_config(f"invariants:\n  {key}: 3.0\n")


def test_lamb_oseen_nu_must_equal_solver_mu():
    parse_config("solver:\n  mu: 0.5\ndata:\n  kind: lamb_oseen\n  nu: 0.5\n")
    with pytest.raises(ConfigError, match="data.nu"):
        parse_config("solver:\n  mu: 0.5\ndata:\n  kind: lamb_oseen\n")
    # other data kinds have no viscosity of their own
    parse_config("solver:\n  mu: 0.5\ndata:\n  kind: stream_random\n")


def test_invalid_value_names_section_path():
    with pytest.raises(ConfigError, match="solver"):
        parse_config("solver:\n  mu: -1.0\n")


def test_type_mismatch_rejected():
    with pytest.raises(ConfigError, match="grid.nr"):
        parse_config("grid:\n  nr: lots\n")
    with pytest.raises(ConfigError, match="grid.r_max"):
        parse_config("grid:\n  r_max: wide\n")
    with pytest.raises(ConfigError, match="data.kind"):
        parse_config("data:\n  kind: 7\n")


@pytest.mark.parametrize("section, message", [
    ("nr: 4", "grid: grid counts too small"),
    ("r_max: -1.0", "grid.r_max must be positive"),
    ("z_min: 1.0\n  z_max: 1.0", "grid: need z_max > z_min"),
    ("r_max: .nan", "grid.r_max: expected a finite number, got nan"),
    ("z_max: .inf", "grid.z_max: expected a finite number, got inf"),
    ("r_max: 1e-300", r"grid.r_max gives a spacing .* out of range: 1/h\^2 must be finite"),
], ids=["nr", "r_max", "z_extent", "r_max=nan", "z_max=inf", "r_max=1e-300"])
def test_a_bad_grid_is_rejected_when_the_config_is_read(section, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(f"grid:\n  {section}\n")


def test_bool_not_accepted_as_number():
    with pytest.raises(ConfigError, match="grid.nr"):
        parse_config("grid:\n  nr: true\n")


def test_malformed_yaml_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("grid: [unclosed\n")
    with pytest.raises(ConfigError, match="top level"):
        parse_config("- just\n- a\n- list\n")


def test_solver_dt_and_cfl_are_exclusive():
    with pytest.raises(ConfigError, match="solver"):
        parse_config("solver:\n  dt: 1e-3\n  cfl: 0.4\n")
    cfg = parse_config("solver:\n  dt: 1e-3\n")
    assert cfg.solver.dt == pytest.approx(1e-3)
    assert cfg.solver.cfl is None


def test_round_trip_law():
    text = (
        "grid:\n  nr: 48\n  r_max: 6.0\n"
        "solver:\n  cfl: 0.3\n  mu: 0.5\n"
        "data:\n  kind: lamb_oseen\n  nu: 0.5\n  t_offset: 0.25\n"
    )
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # serialization is deterministic
    assert serialize_config(cfg) == serialize_config(again)


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.yaml"))
                         + sorted(ROOT.glob("perfbench/inputs/*.yaml")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_libyaml_loads_and_dumps_what_pure_python_does(path, monkeypatch):
    # libyaml, where PyYAML has it, against the pure-Python SafeLoader and
    # SafeDumper that the config falls back to without it: the same documents
    # (types included) and the same config.yaml text
    text = path.read_text(encoding="utf-8")
    fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))
    cfg = parse_config(text)
    dumped = serialize_config(cfg)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
    assert parse_config(text) == cfg
    assert serialize_config(cfg) == dumped


def test_sweep_validation():
    cfg = parse_config("sweep:\n  data.seed: [0, 1, 2]\n")
    assert cfg.sweep == {"data.seed": [0, 1, 2]}
    with pytest.raises(ConfigError, match="sweep.data.seed"):
        parse_config("sweep:\n  data.seed: 3\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("sweep:\n  nodata.seed: [1]\n")
    with pytest.raises(ConfigError, match="sweep"):
        parse_config("sweep: [1, 2]\n")


def test_apply_override():
    cfg = RunConfig()
    out = apply_override(cfg, "data.seed", 7)
    assert out.data.seed == 7
    assert cfg.data.seed == 0  # original untouched
    out2 = apply_override(cfg, "solver.mu", 2)
    assert out2.solver.mu == 2.0 and isinstance(out2.solver.mu, float)


def test_apply_override_rejects_bad_paths():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="bad override path"):
        apply_override(cfg, "data", 1)
    with pytest.raises(ConfigError, match="unknown key data.sead"):
        apply_override(cfg, "data.sead", 1)
    with pytest.raises(ConfigError, match="data.seed"):
        apply_override(cfg, "data.seed", "seven")
