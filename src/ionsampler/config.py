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
from dataclasses import dataclass, replace

from .dd_compiler import SCHEMES
from .detection import DetectionParams
from .ion_chain import TrapParams

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]

TARGET_KINDS = ("identity", "fourier", "haar", "file")
_REQUIRED = object()  # the default of a field that must be present


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


@dataclass(frozen=True)
class TargetSpec:
    kind: str
    seed: int | None = None
    path: str | None = None


@dataclass(frozen=True)
class DDSpec:
    n_sub: int = 16
    scheme: str = "hadamard"


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
    solver: float = 1e-12
    unitarity: float = 1e-10
    normalization: float = 1e-9


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
        return replace(
            self,
            target=replace(self.target, seed=seed),
            sampling=replace(self.sampling, seed=seed),
            detection=replace(self.detection, seed=seed),
        )


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
        if key in self.data:
            return self.data[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.path}.{key}: required field missing")
        return default

    def number(self, key, default=_REQUIRED, minimum=None):
        value = self._get(key, default)
        if key not in self.data:
            return default
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise ConfigError(f"{self.path}.{key}: expected a finite number, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return float(value)

    def integer(self, key, default=_REQUIRED, minimum=None):
        value = self._get(key, default)
        if key not in self.data:
            return default
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{self.path}.{key}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return value

    def string(self, key, default=_REQUIRED, choices=None):
        value = self._get(key, default)
        if key not in self.data:
            return default
        if not isinstance(value, str):
            raise ConfigError(f"{self.path}.{key}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{self.path}.{key}: must be one of {', '.join(choices)}; got {value!r}"
            )
        return value

    def int_list(self, key):
        value = self._get(key, _REQUIRED)
        if not isinstance(value, list) or any(
            not isinstance(x, int) or isinstance(x, bool) for x in value
        ):
            raise ConfigError(f"{self.path}.{key}: expected a list of integers")
        return [int(x) for x in value]

    def subsection(self, key, default=_REQUIRED):
        return _Section(self._get(key, default), f"{self.path}.{key}")

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            name = sorted(unknown)[0]
            raise ConfigError(f"{self.path}.{name}: unknown key (strict mode)")


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document into a :class:`RunConfig`.

    Raises :class:`ConfigError` naming the first offending field.
    """
    root = _Section(data, "config")

    trap_sec = root.subsection("trap")
    omega_x_hz = trap_sec.number("omega_x_hz", minimum=0.0)
    omega_z_hz = trap_sec.number("omega_z_hz", minimum=0.0)
    trap_sec.finish()

    chain_sec = root.subsection("chain")
    num_ions = chain_sec.integer("num_ions", minimum=1)
    chain_sec.finish()

    try:
        trap = TrapParams(2 * math.pi * omega_x_hz, 2 * math.pi * omega_z_hz, num_ions)
    except ValueError as exc:
        raise ConfigError(f"config.trap: {exc}") from exc

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
    kind = target_sec.string("kind", choices=TARGET_KINDS)
    seed = target_sec.integer("seed", default=None)
    path = target_sec.string("path", default=None)
    target_sec.finish()
    if kind == "haar" and seed is None:
        raise ConfigError("config.target.seed: required for kind 'haar'")
    if kind == "file" and path is None:
        raise ConfigError("config.target.path: required for kind 'file'")

    dd_sec = root.subsection("dd", default={})
    dd = DDSpec(
        n_sub=dd_sec.integer("n_sub", default=DDSpec.n_sub, minimum=1),
        scheme=dd_sec.string("scheme", default=DDSpec.scheme, choices=SCHEMES),
    )
    dd_sec.finish()

    sampling_sec = root.subsection("sampling", default={})
    sampling = SamplingSpec(
        num_samples=sampling_sec.integer("num_samples", default=SamplingSpec.num_samples, minimum=1),
        seed=sampling_sec.integer("seed", default=SamplingSpec.seed),
    )
    sampling_sec.finish()

    det_sec = root.subsection("detection", default={})
    det_fields = dict(
        readout_fidelity=det_sec.number("readout_fidelity", default=DetectionSpec.readout_fidelity),
        prep_error=det_sec.number("prep_error", default=DetectionSpec.prep_error),
        max_repetitions=det_sec.integer(
            "max_repetitions", default=DetectionSpec.max_repetitions, minimum=1
        ),
        seed=det_sec.integer("seed", default=DetectionSpec.seed),
    )
    det_sec.finish()
    try:
        detection = DetectionSpec(**det_fields)
    except ValueError as exc:
        raise ConfigError(f"config.detection: {exc}") from exc

    tol_sec = root.subsection("tolerances", default={})
    tolerances = Tolerances(
        solver=tol_sec.number("solver", default=Tolerances.solver, minimum=0.0),
        unitarity=tol_sec.number("unitarity", default=Tolerances.unitarity, minimum=0.0),
        normalization=tol_sec.number("normalization", default=Tolerances.normalization, minimum=0.0),
    )
    tol_sec.finish()

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
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(data)
