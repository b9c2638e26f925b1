"""Run configuration: a versioned JSON file parsed into a validated RunConfig.

Unknown keys are rejected, and every error message carries the config path
and a best-effort line number so it can be jumped to from a terminal.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .statistics import SourceKind
from .transmission import LossParameters, PriorityLogic, _is_power_of_two

CONFIG_VERSION = 1

_TOP_KEYS = {
    "version",
    "losses",
    "source",
    "logics",
    "m_values",
    "n_values",
    "lambda_bounds",
    "output_dir",
    "validation",
}
_LOSS_KEYS = {field.name for field in fields(LossParameters)}
_VALIDATION_KEYS = {"trials", "seed", "points"}

# Largest finite float, the bound on a configured pump strength: JSON's 1e999
# parses as inf, NaN as nan, and an integer above this overflows float().
_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """Invalid run configuration; message is ``path:line: detail``."""


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a run configuration file."""

    losses: LossParameters
    source: SourceKind
    logics: tuple[PriorityLogic, ...]
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    lambda_bounds: tuple[float, float] | None
    output_dir: Path
    validation_trials: int
    validation_seed: int
    validation_points: tuple[tuple[int, int, float], ...]


def _line_of(text: str, key: str) -> int:
    """Best-effort line number of a JSON key in the raw config text."""
    match = re.search(rf'"{re.escape(key)}"\s*:', text)
    if match is None:
        return 1
    return text.count("\n", 0, match.start()) + 1


def _fail(path: Path, text: str, key: str, message: str) -> ConfigError:
    return ConfigError(f"{path}:{_line_of(text, key)}: {message}")


def _is_a(value, kind) -> bool:
    """``isinstance(value, kind)``, except that a JSON true/false (a Python bool) is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _reject_unknown(path: Path, text: str, raw: dict, allowed: set[str], what: str) -> None:
    for key in raw:
        if key not in allowed:
            raise _fail(path, text, key, f"{what} \"{key}\"")


def _require(raw: dict, path: Path, text: str, key: str, kind, what: str):
    if key not in raw:
        raise ConfigError(f"{path}:1: missing required key \"{key}\"")
    value = raw[key]
    if not _is_a(value, kind):
        raise _fail(path, text, key, f"\"{key}\" must be {what}")
    return value


def _int_grid(raw: dict, path: Path, text: str, key: str) -> tuple[int, ...]:
    values = _require(raw, path, text, key, list, "a non-empty list of integers")
    if not values or not all(_is_a(v, int) for v in values):
        raise _fail(path, text, key, f"\"{key}\" must be a non-empty list of integers")
    for i, v in enumerate(values):
        if not _is_power_of_two(v):
            raise _fail(path, text, key, f"\"{key}\" entries must be powers of 2, got {v}")
        if v in values[:i]:
            raise _fail(path, text, key, f"duplicate \"{key}\" entry {v}")
    return tuple(values)


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration.

    Raises:
        ConfigError: on syntax errors, unknown keys, or invalid values,
            with a line-anchored message.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}:1: config file not found")
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1: config root must be a JSON object")
    _reject_unknown(path, text, raw, _TOP_KEYS, "unknown key")

    version = _require(raw, path, text, "version", int, "an integer")
    if version != CONFIG_VERSION:
        raise _fail(path, text, "version", f"unsupported config version {version}, expected {CONFIG_VERSION}")

    losses_raw = _require(raw, path, text, "losses", dict, "an object of efficiencies")
    _reject_unknown(path, text, losses_raw, _LOSS_KEYS, "unknown loss key")
    for key, value in losses_raw.items():
        if not _is_a(value, (int, float)):
            raise _fail(path, text, key, f"loss \"{key}\" must be a number")
    try:
        losses = LossParameters(**{k: float(v) for k, v in losses_raw.items()})
    except (TypeError, ValueError) as exc:
        raise _fail(path, text, "losses", str(exc)) from exc

    source_raw = _require(raw, path, text, "source", str, "a string")
    try:
        source = SourceKind(source_raw)
    except ValueError as exc:
        raise _fail(path, text, "source", f"source must be one of {[k.value for k in SourceKind]}") from exc

    logics_raw = _require(raw, path, text, "logics", list, "a non-empty list of logic names")
    if not logics_raw:
        raise _fail(path, text, "logics", "\"logics\" must be a non-empty list")
    logics = []
    for name in logics_raw:
        try:
            logic = PriorityLogic(name)
        except ValueError as exc:
            raise _fail(
                path, text, "logics", f"logic must be one of {[k.value for k in PriorityLogic]}"
            ) from exc
        if logic in logics:
            raise _fail(path, text, "logics", f"duplicate logic \"{name}\"")
        logics.append(logic)

    m_values = _int_grid(raw, path, text, "m_values")
    n_values = _int_grid(raw, path, text, "n_values")

    lambda_bounds = None
    if raw.get("lambda_bounds") is not None:
        bounds = raw["lambda_bounds"]
        ok = (
            isinstance(bounds, list)
            and len(bounds) == 2
            and all(_is_a(b, (int, float)) for b in bounds)
        )
        if not ok or not 0.0 <= bounds[0] < bounds[1] <= _FLOAT_MAX:
            raise _fail(
                path, text, "lambda_bounds", "\"lambda_bounds\" must be finite [lo, hi] with 0 <= lo < hi"
            )
        lambda_bounds = (float(bounds[0]), float(bounds[1]))

    output_dir = Path(_require(raw, path, text, "output_dir", str, "a directory path"))

    trials, seed, points = 1_000_000, 0, ()
    if "validation" in raw:
        validation = _require(raw, path, text, "validation", dict, "an object")
        _reject_unknown(path, text, validation, _VALIDATION_KEYS, "unknown validation key")
        if "trials" in validation:
            trials = validation["trials"]
            if not _is_a(trials, int) or trials < 1:
                raise _fail(path, text, "trials", "\"trials\" must be a positive integer")
        if "seed" in validation:
            seed = validation["seed"]
            if not _is_a(seed, int) or seed < 0:
                raise _fail(path, text, "seed", "\"seed\" must be a non-negative integer")
        if "points" in validation:
            points_raw = validation["points"]
            if not isinstance(points_raw, list):
                raise _fail(path, text, "points", "\"points\" must be a list of [m, n, lambda] triples")
            parsed = []
            for triple in points_raw:
                ok = (
                    isinstance(triple, list)
                    and len(triple) == 3
                    and all(_is_a(size, int) and _is_power_of_two(size) for size in triple[:2])
                    and _is_a(triple[2], (int, float))
                    and 0 <= triple[2] <= _FLOAT_MAX
                )
                if not ok:
                    rule = "m and n powers of 2, lambda finite and >= 0"
                    raise _fail(path, text, "points", f"invalid validation point {triple!r}: want {rule}")
                point = (triple[0], triple[1], float(triple[2]))
                if point in parsed:
                    raise _fail(path, text, "points", f"duplicate validation point {list(point)}")
                parsed.append(point)
            points = tuple(parsed)

    return RunConfig(
        losses=losses,
        source=source,
        logics=tuple(logics),
        m_values=m_values,
        n_values=n_values,
        lambda_bounds=lambda_bounds,
        output_dir=output_dir,
        validation_trials=trials,
        validation_seed=seed,
        validation_points=points,
    )
