"""Run configuration: one JSON file covering world and training
settings, with strict unknown-key rejection and dot-path overrides.
Defaults reproduce the published hyperparameters (tau=10, lr=1e-4,
weight decay=1e-4, 5 shots, hidden dim 512).
"""

import dataclasses
import hashlib
import json

from .schema import ConfigError, build_dataclass
from .simulator import WorldConfig
from .trainer import TrainConfig


def _section(doc, key):
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object")
    return value


_TOP_KEYS = {"world", "train", "expected_dataset_digest"}


@dataclasses.dataclass
class RunConfig:
    world: WorldConfig
    train: TrainConfig
    expected_dataset_digest: str = None

    @classmethod
    def from_dict(cls, doc):
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        world = build_dataclass(WorldConfig, _section(doc, "world"), "world")
        train = build_dataclass(TrainConfig, _section(doc, "train"), "train")
        try:
            world.validate()
            train.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        digest = doc.get("expected_dataset_digest")
        if digest is not None and not isinstance(digest, str):
            raise ConfigError(f"'expected_dataset_digest' must be a string or null, "
                              f"got {digest!r}")
        return cls(world=world, train=train, expected_dataset_digest=digest)

    def to_dict(self):
        return dataclasses.asdict(self)

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def apply_overrides(doc, overrides):
    """Apply --set dot.path=value pairs; values parse as JSON, else string."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like path=value: {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = path.split(".")
        node = doc
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {path!r}")
        node[keys[-1]] = value
    return doc


def load_run_config(path, overrides=()):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return RunConfig.from_dict(apply_overrides(doc, overrides))


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
