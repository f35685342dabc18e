"""Plain-text run configuration: ``key = value`` lines.

A run file carries the training hyperparameters plus dataset and output
paths. Blank lines and ``#`` comments are ignored; unknown keys are rejected
by name; missing keys take the defaults of ``TrainConfig`` and of the
fields ``RunConfig`` adds. Command-line flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from nohgnn.data import utf8_lines
from nohgnn.errors import ParameterError, ParseError
from nohgnn.training import TrainConfig


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """One training/evaluation run: the hyperparameters, a data source and
    an output directory.

    ``data`` names an ingested dataset artifact; ``edges`` plus ``slots``
    name a raw edge list to ingest on the fly. Exactly one source is needed
    for training. With ``data`` the dataset's own slot count and direction
    apply: another ``slots`` or ``undirected = false`` on an undirected dataset
    is refused, and ``undirected = true`` (the default) leaves one directed.
    """

    edges: str | None = None
    data: str | None = None
    slots: int | None = None
    undirected: bool = True
    out: str = "."

    def to_train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


# field annotations are strings under postponed evaluation: "int", "str | None", ...
_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool}
_CONVERTERS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def load_run_config(path: str) -> RunConfig:
    kwargs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(utf8_lines(fh, path), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONVERTERS:
                raise ParseError(f"{path}:{line_no}: unknown key {key!r}")
            if key in kwargs:
                raise ParseError(f"{path}:{line_no}: duplicate key {key!r}")
            try:
                kwargs[key] = _CONVERTERS[key](value)
            except ValueError as exc:
                raise ParseError(f"{path}:{line_no}: {exc}") from None
    try:
        return RunConfig(**kwargs)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def with_overrides(config: RunConfig, **overrides) -> RunConfig:
    """A copy with every non-None override applied."""
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})
