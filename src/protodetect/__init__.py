"""Prototype-based few-shot / open-set detection head over a synthetic
proposal world: embeddings, energy posteriors, three-loss two-stage
training with hand-derived gradients, and COCO-style evaluation."""

from .embedder import EmbeddingNet, LinearClassifier
from .losses import episode_loss
from .prototypes import (PrototypeBank, SupportSet, build_prototypes,
                         compose_unknown_prototype, posteriors_batch)
from .simulator import Scene, WorldConfig, generate_world, iou
from .trainer import TrainConfig, train

__all__ = [
    "EmbeddingNet", "LinearClassifier", "episode_loss",
    "PrototypeBank", "SupportSet", "build_prototypes",
    "compose_unknown_prototype", "posteriors_batch", "Scene", "WorldConfig",
    "generate_world", "iou", "TrainConfig", "train",
]
