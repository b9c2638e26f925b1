"""Run configuration: a versioned JSON file parsed into a validated RunConfig.

The parser checks JSON syntax, shapes, keys, names and repeats, and builds
every value through its record's rule: one ``SweepSpec`` per configured
logic, which holds the losses, the source, the grid and the pump-strength
bounds.  It also refuses a file that is not UTF-8 and an output directory
that cannot be made.  Every error message carries the config path and a
best-effort line number, the offending key's, for a terminal to jump to.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .montecarlo import _trials
from .optimize import SweepSpec
from .statistics import PairSourceModel, SourceKind
from .transmission import _GRID_MAX, LossParameters, PriorityLogic, _count, _size

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


class ConfigError(ValueError):
    """Invalid run configuration; message is ``path:line: detail``."""


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a run configuration file.

    ``sweeps`` holds one sweep per configured logic, in config order; the
    sweeps differ in their logic only.
    """

    sweeps: tuple[SweepSpec, ...]
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


def _built(path: Path, text: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ``ValueError`` anchored at the field its message begins with, its key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _fail(path, text, re.match(r"\w*", str(exc)).group(), str(exc)) from exc


def _unmakeable(label: str, directory: Path) -> str | None:
    """Why ``directory.mkdir(parents=True, exist_ok=True)`` would fail, or None if it would not.

    Told from the name, which must encode without a NUL byte, and from the
    nearest of the directory and its parents that exists, which must be a
    directory; so nothing is made to find out.
    """
    try:
        encoded = os.fsencode(directory)
    except UnicodeEncodeError:  # a lone surrogate
        encoded = b"\0"
    if b"\0" in encoded:
        return f"{label} {str(directory)!r} is not a file-system path"
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    return None if existing.is_dir() else f"cannot make {label} {directory}: {existing} is not a directory"


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration.

    Raises:
        ConfigError: on syntax errors, unknown keys, or invalid values,
            with a line-anchored message.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}:1: config file not found")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}:1: config file is not UTF-8 text: {exc.reason}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ConfigError(f"{path}:1: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1: config root must be a JSON object")
    _reject_unknown(path, text, raw, _TOP_KEYS, "unknown key")

    version = _require(raw, path, text, "version", int, "an integer")
    if version != CONFIG_VERSION:
        raise _fail(path, text, "version", f"unsupported config version {version}, expected {CONFIG_VERSION}")

    losses_raw = _require(raw, path, text, "losses", dict, "an object of efficiencies")
    _reject_unknown(path, text, losses_raw, _LOSS_KEYS, "unknown loss key")
    for key, value in losses_raw.items():
        if value is None:  # LossParameters reads None as its default, but null is no efficiency
            raise _fail(path, text, key, f"loss \"{key}\" must be a number, got null")
    try:
        losses = _built(path, text, LossParameters, **losses_raw)
    except TypeError as exc:
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

    grids = [_require(raw, path, text, key, list, "a list of sizes") for key in ("m_values", "n_values")]
    bounds = raw.get("lambda_bounds")
    if not (bounds is None or isinstance(bounds, list) and len(bounds) == 2):
        raise _fail(path, text, "lambda_bounds", "\"lambda_bounds\" must be a [lo, hi] pair or null")
    sweeps = tuple(_built(path, text, SweepSpec, *grids, losses, source, logic, bounds) for logic in logics)

    output_dir = Path(_require(raw, path, text, "output_dir", str, "a directory path"))
    unmakeable = _unmakeable("output_dir", output_dir)
    if unmakeable:
        raise _fail(path, text, "output_dir", unmakeable)

    trials, seed, points = 1_000_000, 0, ()
    if "validation" in raw:
        validation = _require(raw, path, text, "validation", dict, "an object")
        _reject_unknown(path, text, validation, _VALIDATION_KEYS, "unknown validation key")
        if "trials" in validation:
            trials = _built(path, text, _trials, validation["trials"])
        if "seed" in validation:
            seed = _built(path, text, _count, "seed", validation["seed"], 0)
        if "points" in validation:
            points_raw = validation["points"]
            if not isinstance(points_raw, list):
                raise _fail(path, text, "points", "\"points\" must be a list of [m, n, lambda] triples")
            parsed = []
            for triple in points_raw:
                invalid = f"invalid validation point {triple!r}"
                want = f"{invalid}: want [m, n, lambda], m and n powers of 2 up to {_GRID_MAX}"
                if not (isinstance(triple, list) and len(triple) == 3):
                    raise _fail(path, text, "points", want)
                try:
                    m, n = (_size("point", k) for k in triple[:2])
                except ValueError as exc:
                    raise _fail(path, text, "points", want) from exc
                try:
                    point = (m, n, PairSourceModel(source, triple[2], n).mean_pairs)
                except ValueError as exc:
                    raise _fail(path, text, "points", f"{invalid}: {exc}") from exc
                if point in parsed:
                    raise _fail(path, text, "points", f"duplicate validation point {list(point)}")
                parsed.append(point)
            points = tuple(parsed)

    return RunConfig(
        sweeps=sweeps,
        output_dir=output_dir,
        validation_trials=trials,
        validation_seed=seed,
        validation_points=points,
    )
