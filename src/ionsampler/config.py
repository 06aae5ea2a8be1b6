"""Run configuration: a single strict JSON document.

Unknown keys anywhere in the document are rejected so that typos fail
loudly instead of silently falling back to defaults.  Every diagnostic
names the offending field with its dotted path.

Frequencies are given in Hz in the file (the natural unit at the lab
bench) and converted to angular frequencies internally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .boson_stats import NORMALIZATION_TOL
from .dd_compiler import DEFAULT_N_SUB, DEFAULT_SCHEME, SCHEMES
from .detection import DetectionParams
from .ion_chain import SOLVER_TOL, TrapParams
from .linear_optics import UNITARITY_TOL

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]

TARGET_KINDS = ("identity", "fourier", "haar", "file")
_REQUIRED = object()  # the default of a field that must be present
_SEED = {"minimum": 0}  # numpy seeds its generators from non-negative integers only


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class TargetSpec:
    kind: str
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class DDSpec:
    n_sub: int = DEFAULT_N_SUB
    scheme: str = DEFAULT_SCHEME


@dataclass(frozen=True)
class SamplingSpec:
    num_samples: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class DetectionSpec(DetectionParams):
    """The detection parameters plus the seed of the detect stage."""

    seed: int = 0


@dataclass(frozen=True)
class Tolerances:
    solver: float = SOLVER_TOL
    unitarity: float = UNITARITY_TOL
    normalization: float = NORMALIZATION_TOL


@dataclass(frozen=True)
class RunConfig:
    trap: TrapParams
    occupations: tuple[int, ...]
    target: TargetSpec
    dd: DDSpec
    sampling: SamplingSpec
    detection: DetectionSpec
    tolerances: Tolerances

    @property
    def num_ions(self) -> int:
        return self.trap.num_ions

    def with_seed(self, seed: int) -> "RunConfig":
        """Copy with every stage seed replaced by ``seed``."""
        if seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {seed}")
        return replace(
            self,
            target=replace(self.target, seed=seed),
            sampling=replace(self.sampling, seed=seed),
            detection=replace(self.detection, seed=seed),
        )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# What each scalar kind accepts: a bool is never a number, and a float must be finite.
_KINDS = {
    int: ("an integer", _is_int),
    float: ("a finite number", lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
}
# A field's annotation is its kind's name: every module here defers annotations.
_KIND_NAMES = {kind.__name__: kind for kind in _KINDS}


class _Section:
    """Typed accessor over one JSON object; tracks the dotted path and
    complains about keys it was never asked for."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _get(self, key, default):
        self.seen.add(key)
        if key not in self.data and default is _REQUIRED:
            raise ConfigError(f"{self.path}.{key}: required field missing")
        return self.data.get(key, default)

    def value(self, key, kind, default=_REQUIRED, minimum=None, choices=None):
        """The scalar ``key`` as ``kind``: int, float or str (see ``_KINDS``)."""
        value = self._get(key, default)
        if key not in self.data:
            return default
        what, ok = _KINDS[kind]
        if not ok(value):
            raise ConfigError(f"{self.path}.{key}: expected {what}, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{self.path}.{key}: must be one of {', '.join(choices)}; got {value!r}")
        return kind(value)

    def int_list(self, key):
        value = self._get(key, _REQUIRED)
        if not isinstance(value, list) or not all(map(_is_int, value)):
            raise ConfigError(f"{self.path}.{key}: expected a list of integers")
        return [int(x) for x in value]

    def subsection(self, key, default=_REQUIRED):
        return _Section(self._get(key, default), f"{self.path}.{key}")

    def spec(self, key, cls, **limits):
        """The optional subsection ``key`` as the dataclass ``cls``, by the types and
        defaults of its fields; ``limits`` maps a field to its ``minimum`` or ``choices``."""
        section = self.subsection(key, default={})
        values = {f.name: section.value(f.name, _KIND_NAMES[f.type], f.default, **limits.get(f.name, {}))
                  for f in fields(cls)}
        section.finish()
        return section.build(cls, **values)

    def build(self, cls, *args, **kwargs):
        """``cls(*args, **kwargs)``, its ValueError reported against this section."""
        try:
            return cls(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from exc

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            raise ConfigError(f"{self.path}.{min(unknown)}: unknown key (strict mode)")


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document into a :class:`RunConfig`.

    Raises :class:`ConfigError` naming the first offending field.
    """
    root = _Section(data, "config")

    trap_sec = root.subsection("trap")
    omega_x_hz = trap_sec.value("omega_x_hz", float, minimum=0.0)
    omega_z_hz = trap_sec.value("omega_z_hz", float, minimum=0.0)
    trap_sec.finish()

    chain_sec = root.subsection("chain")
    num_ions = chain_sec.value("num_ions", int, minimum=1)
    chain_sec.finish()

    trap = trap_sec.build(TrapParams, 2 * math.pi * omega_x_hz, 2 * math.pi * omega_z_hz, num_ions)

    input_sec = root.subsection("input")
    occupations = input_sec.int_list("occupations")
    input_sec.finish()
    if len(occupations) != num_ions:
        raise ConfigError(
            f"config.input.occupations: length {len(occupations)} does not match "
            f"chain.num_ions = {num_ions}"
        )
    if any(n < 0 for n in occupations):
        raise ConfigError("config.input.occupations: entries must be >= 0")
    if sum(occupations) < 1:
        raise ConfigError("config.input.occupations: at least one boson required")

    target_sec = root.subsection("target")
    kind = target_sec.value("kind", str, choices=TARGET_KINDS)
    seed = target_sec.value("seed", int, None, **_SEED)
    path = target_sec.value("path", str, None)
    target_sec.finish()
    if kind == "haar" and seed is None:
        raise ConfigError("config.target.seed: required for kind 'haar'")
    if kind == "file" and path is None:
        raise ConfigError("config.target.path: required for kind 'file'")

    positive, non_negative = {"minimum": 1}, {"minimum": 0.0}
    dd = root.spec("dd", DDSpec, n_sub=positive, scheme={"choices": SCHEMES})
    sampling = root.spec("sampling", SamplingSpec, num_samples=positive, seed=_SEED)
    detection = root.spec("detection", DetectionSpec, max_repetitions=positive, seed=_SEED)
    tolerances = root.spec("tolerances", Tolerances, unitarity=non_negative, normalization=non_negative)
    # the chain solver runs until its residual is below its tolerance, and no
    # computed unitary meets a unitarity tolerance of 0
    for name, value in (("solver", tolerances.solver), ("unitarity", tolerances.unitarity)):
        if not value > 0:
            raise ConfigError(f"config.tolerances.{name}: must be > 0, got {value}")

    root.finish()
    return RunConfig(trap, tuple(occupations), TargetSpec(kind, seed, path), dd, sampling, detection, tolerances)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
