"""Run configuration: one JSON file covering world, training, and
protocol settings, with strict unknown-key rejection and dot-path
overrides. Defaults reproduce the published hyperparameters
(tau=10, lr=1e-4, weight decay=1e-4, 5 shots, hidden dim 512).
"""

import dataclasses
import hashlib
import json
import math

from .simulator import WorldConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


def _type_ok(value, typ):
    """JSON value fits a field of type typ: numbers are finite, and a
    bool is no number."""
    if typ in (int, float):
        number = isinstance(value, int) or (typ is float and isinstance(value, float))
        return number and not isinstance(value, bool) and math.isfinite(value)
    if typ is tuple:
        return isinstance(value, (list, tuple)) and all(_type_ok(x, float) for x in value)
    return isinstance(value, typ)


def _section(doc, key):
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object")
    return dict(value)


def _build_dataclass(cls, doc, section):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - names
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")
    for f in dataclasses.fields(cls):
        if f.name in doc and not _type_ok(doc[f.name], f.type):
            raise ConfigError(f"'{section}.{f.name}' must be of type "
                              f"{f.type.__name__}, got {doc[f.name]!r}")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid '{section}' config: {e}") from e


_PROTOCOL_KEYS = {"mode", "unknown_includes_background"}
_TOP_KEYS = {"world", "train", "protocol", "expected_dataset_digest"}


@dataclasses.dataclass
class RunConfig:
    world: WorldConfig
    train: TrainConfig
    protocol: dict
    expected_dataset_digest: str = None

    @classmethod
    def from_dict(cls, doc):
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
        wdoc = _section(doc, "world")
        if isinstance(wdoc.get("box_size_range"), list):
            wdoc["box_size_range"] = tuple(wdoc["box_size_range"])
        world = _build_dataclass(WorldConfig, wdoc, "world")
        train = _build_dataclass(TrainConfig, _section(doc, "train"), "train")
        proto = _section(doc, "protocol")
        bad = set(proto) - _PROTOCOL_KEYS
        if bad:
            raise ConfigError(f"unknown keys in 'protocol': {sorted(bad)}")
        proto.setdefault("mode", "fewshot")
        proto.setdefault("unknown_includes_background", True)
        try:
            world.validate()
            train.validate()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        return cls(world=world, train=train, protocol=proto,
                   expected_dataset_digest=doc.get("expected_dataset_digest"))

    def to_dict(self):
        w = dataclasses.asdict(self.world)
        w["box_size_range"] = list(w["box_size_range"])
        return {"world": w, "train": dataclasses.asdict(self.train),
                "protocol": self.protocol,
                "expected_dataset_digest": self.expected_dataset_digest}

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
