"""Run configuration: flat ``key = value`` text files."""

import math
import os
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import solvers as sv
from .errors import ConfigError, IoError
from .geometry import METRICS


def _memory_bytes():
    """Physical memory in bytes, or no limit where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


@dataclass
class RunConfig:
    conv_metric: str = "ecm"
    mlr_metric: str = "ecm"
    n_in: int = 8
    channels: int = 2
    field_size: int = 2
    stride: int = 1
    kernels: int = 1
    m_hidden: int = 6
    classes: int = 3
    power: float = 1.0
    optimizer: str = "adam"
    lr: float = 1e-2
    weight_decay: float = 0.0
    epochs: int = 100
    batch_size: int = 30
    seed: int = 0
    dplus_tol: float = sv.DPLUS_TOL
    dplus_max_iter: int = sv.DPLUS_MAX_ITER
    dstar_mode: str = "newton1"
    dstar_tol: float = sv.DSTAR_TOL
    activation: str = "none"

    def validate(self):
        if self.conv_metric not in METRICS or self.mlr_metric not in METRICS:
            raise ConfigError(f"unknown metric: {self.conv_metric}/{self.mlr_metric}")
        for name in ("n_in", "channels", "field_size", "stride", "kernels",
                     "m_hidden", "classes", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_in < 2 or self.m_hidden < 2:
            raise ConfigError("n_in and m_hidden must be at least 2")
        for name in ("epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        for name in ("lr", "dplus_tol", "dstar_tol"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive and finite")
        if not math.isfinite(self.power):
            raise ConfigError("power must be finite")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError("weight_decay must be nonnegative and finite")
        if self.dplus_max_iter < 1:
            raise ConfigError("dplus_max_iter must be at least 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.dstar_mode not in ("full", "newton1"):
            raise ConfigError(f"unknown dstar_mode {self.dstar_mode!r}")
        if self.activation not in ("none", "tangent_relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.field_size > self.channels:
            raise ConfigError("field_size exceeds channels")
        if (self.channels - self.field_size) % self.stride != 0:
            raise ConfigError("channels minus field_size not divisible by stride")
        # float64 entries of the conv and MLR blocks and of one input sample,
        # in Python ints, which cannot wrap
        slots = self.m_hidden * (self.m_hidden - 1) // 2
        out_channels = ((self.channels - self.field_size) // self.stride + 1) * self.kernels
        count = (self.kernels * slots * (self.field_size * self.n_in * (self.n_in - 1) // 2 + 1)
                 + self.classes * (out_channels * slots + 1) + self.channels * self.n_in**2)
        if 8 * count > min(np.iinfo(np.intp).max, _memory_bytes()):
            raise ConfigError(f"the network needs {count} float64 entries, more than an array "
                              f"or this machine's memory can hold")
        return self

    def solver_options(self):
        return {
            "dplus_tol": self.dplus_tol,
            "dplus_max_iter": self.dplus_max_iter,
            "dstar_mode": self.dstar_mode,
            "dstar_tol": self.dstar_tol,
        }

    def lines(self):
        return [f"{k} = {v}" for k, v in asdict(self).items()]


def parse_config_text(text):
    fields = {f.name: f.type for f in RunConfig.__dataclass_fields__.values()}
    types = {name: type(getattr(RunConfig(), name)) for name in fields}
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[key] = types[key](val)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from e
    return RunConfig(**kwargs).validate()


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise IoError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config {path} is not UTF-8 text: {e}") from e
    return parse_config_text(text)
