"""Experiment configuration: validated JSON round-trippable settings."""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from ..basis import BasisSpec, constant_basis, gbm_basis, hermite_basis, monomial_basis
from ..chain import MarkovChainSpec, discretize_brownian, discretize_gbm
from ..errors import ConfigError
from ..payoff import PayoffSpec, call_payoff, constant_payoff, put_payoff
from ..qsim.ledger import CostWeights

_ALGORITHMS = ("classical", "quantum", "both")
# Each scalar annotation's check and its name in error messages. A bool is
# not a number here, and a float must be finite: a JSON integer past the
# float range fails too, where math.isfinite would raise.
_SCALAR_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
              and abs(v) <= sys.float_info.max, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _check_field_types(config, prefix: str = "") -> None:
    """Raise ConfigError on the first field whose value does not have its
    annotated type; "| None" admits None, nested configs are checked too."""
    for f in fields(config):
        name, value = prefix + f.name, getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if kind not in _SCALAR_TYPES:
            if not is_dataclass(value):
                raise ConfigError(f"{name} must be an object, got {value!r}")
            _check_field_types(value, name + ".")
            continue
        check, expected = _SCALAR_TYPES[kind]
        if not (value is None and f.type.endswith(" | None")) and not check(value):
            raise ConfigError(f"{name} must be {expected}, got {value!r}")


def _read_chain_file(config: ExperimentConfig) -> MarkovChainSpec:
    """The chain in config.chain_file; it must match the config's dimension
    and horizon."""
    try:
        chain = MarkovChainSpec.from_json(Path(config.chain_file).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"chain_file {config.chain_file!r} is not a readable chain: "
                          f"{type(exc).__name__}: {exc}") from exc
    for name in ("dimension", "horizon"):
        if getattr(chain, name) != getattr(config, name):
            raise ConfigError(f"chain_file has {name} {getattr(chain, name)}, but the config's "
                              f"{name} is {getattr(config, name)}")
    return chain


# Each model, payoff and basis name with its builder. The lambdas look names up
# when called, so a wrapper set on this module's discretize_brownian is used.
_MODELS = {
    "brownian": lambda c: discretize_brownian(c.dimension, c.horizon, c.grid_size,
                                              c.grid_radius),
    "gbm": lambda c: discretize_gbm(c.dimension, c.horizon, c.grid_size, c.grid_radius),
    "custom-json": _read_chain_file,
}
_PAYOFFS = {"put": put_payoff, "call": call_payoff, "constant": constant_payoff}
_BASES = {
    "hermite": lambda c: hermite_basis(c.dimension, c.basis.degree, c.horizon,
                                       c.basis.cube_radius),
    "gbm": lambda c: gbm_basis(c.dimension, c.basis.degree, c.horizon, c.basis.cube_radius),
    "constant": lambda c: constant_basis(c.horizon),
    "monomial": lambda c: monomial_basis(c.dimension, c.basis.degree, c.horizon),
}


@dataclass(frozen=True)
class PayoffConfig:
    name: str = "put"
    strike: float = 1.0


@dataclass(frozen=True)
class BasisConfig:
    kind: str = "constant"
    degree: int = 0
    cube_radius: float = 8.0


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "brownian"
    dimension: int = 1
    horizon: int = 3
    grid_size: int = 4
    grid_radius: float = 2.0
    chain_file: str | None = None
    payoff: PayoffConfig = field(default_factory=PayoffConfig)
    basis: BasisConfig = field(default_factory=BasisConfig)
    algorithm: str = "both"
    epsilon: float = 0.05
    delta: float = 0.1
    sigma_min_lower: float | None = None
    sigma_min_oracle: bool = True
    trials: int = 10
    seed: int = 0
    path_count: int | None = None
    sample_step_cost: float = 1.0
    payoff_query_cost: float = 1.0
    basis_query_cost: float = 1.0

    def validate(self) -> None:
        _check_field_types(self)
        checks = [
            (self.model in _MODELS, f"model must be one of {tuple(_MODELS)}, got {self.model!r}"),
            (self.algorithm in _ALGORITHMS,
             f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}"),
            (self.payoff.name in _PAYOFFS,
             f"payoff.name must be one of {tuple(_PAYOFFS)}, got {self.payoff.name!r}"),
            (self.basis.kind in _BASES,
             f"basis.kind must be one of {tuple(_BASES)}, got {self.basis.kind!r}"),
            (self.dimension >= 1, "dimension must be at least 1"),
            (self.horizon >= 1, "horizon must be at least 1"),
            (self.grid_size >= 2, "grid_size must be at least 2"),
            (self.grid_radius > 0, "grid_radius must be positive"),
            (self.payoff.strike > 0, "payoff.strike must be positive"),
            (self.basis.degree >= 0, "basis.degree must be non-negative"),
            (self.basis.cube_radius > 0, "basis.cube_radius must be positive"),
            (0 < self.epsilon < 1, "epsilon must lie in (0, 1)"),
            (0 < self.delta < 1, "delta must lie in (0, 1)"),
            (self.trials >= 1, "trials must be at least 1"),
            (self.seed >= 0, "seed must be non-negative"),
            (self.path_count is None or self.path_count >= 1,
             "path_count must be at least 1 when given"),
            (self.sigma_min_lower is None or self.sigma_min_lower > 0,
             "sigma_min_lower must be positive when given"),
            (self.model != "custom-json" or self.chain_file is not None,
             "custom-json model needs chain_file"),
            (min(self.sample_step_cost, self.payoff_query_cost, self.basis_query_cost) >= 0,
             "sample_step_cost, payoff_query_cost and basis_query_cost must be non-negative"),
            (self.sample_step_cost + self.payoff_query_cost + self.basis_query_cost > 0,
             "sample_step_cost, payoff_query_cost and basis_query_cost must not all be 0"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, doc: str | dict) -> "ExperimentConfig":
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        known = dict(doc)
        try:
            payoff = PayoffConfig(**known.pop("payoff", {}))
            basis = BasisConfig(**known.pop("basis", {}))
            cfg = cls(payoff=payoff, basis=basis, **known)
        except TypeError as exc:
            raise ConfigError(f"unknown or missing config field: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text())

    # -- builders -----------------------------------------------------------

    def build(self) -> tuple[MarkovChainSpec, PayoffSpec, BasisSpec]:
        """The validated instance: its chain, payoff and basis. A builder's
        refusal, such as a GBM basis norm bound past the float range, is a
        config error."""
        self.validate()
        try:
            return self.build_chain(), self.build_payoff(), self.build_basis()
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"the config builds no instance: {type(exc).__name__}: {exc}") from exc

    def build_chain(self) -> MarkovChainSpec:
        return _MODELS[self.model](self)

    def build_payoff(self) -> PayoffSpec:
        return _PAYOFFS[self.payoff.name](self.payoff.strike)

    def build_basis(self) -> BasisSpec:
        return _BASES[self.basis.kind](self)

    def cost_weights(self) -> CostWeights:
        return CostWeights(sample_step=self.sample_step_cost,
                           payoff_query=self.payoff_query_cost,
                           basis_query=self.basis_query_cost)
