"""Registry of the six checkpointing algorithms.

Lookup is by stable key (``"copy-on-update"``) or by the display name used in
the paper's figures (``"Copy-on-Update"``); both are case-insensitive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.core.algorithms import (
    AtomicCopyDirtyObjects,
    CopyOnUpdate,
    CopyOnUpdatePartialRedo,
    DribbleAndCopyOnUpdate,
    NaiveSnapshot,
    PartialRedo,
)
from repro.core.policy import CheckpointPolicy
from repro.errors import ConfigurationError

#: The algorithms in the order the paper's figures list them.
_ALGORITHM_CLASSES: List[Type[CheckpointPolicy]] = [
    NaiveSnapshot,
    DribbleAndCopyOnUpdate,
    AtomicCopyDirtyObjects,
    PartialRedo,
    CopyOnUpdate,
    CopyOnUpdatePartialRedo,
]

_BY_KEY: Dict[str, Type[CheckpointPolicy]] = {}
for _cls in _ALGORITHM_CLASSES:
    _BY_KEY[_cls.key.lower()] = _cls
    _BY_KEY[_cls.name.lower()] = _cls

#: Stable registry keys, in figure order.
ALGORITHM_KEYS = tuple(cls.key for cls in _ALGORITHM_CLASSES)


def algorithm_class(name: str) -> Type[CheckpointPolicy]:
    """Resolve an algorithm class by key or display name."""
    try:
        return _BY_KEY[name.lower()]
    except KeyError:
        known = ", ".join(ALGORITHM_KEYS)
        raise ConfigurationError(
            f"unknown checkpointing algorithm {name!r}; known algorithms: {known}"
        ) from None


def all_algorithm_classes() -> List[Type[CheckpointPolicy]]:
    """All six algorithm classes, in the paper's figure order."""
    return list(_ALGORITHM_CLASSES)


def make_policy(
    name: str, num_objects: int, full_dump_period: Optional[int] = 9
) -> CheckpointPolicy:
    """Instantiate a fresh policy for one simulation or engine run."""
    return algorithm_class(name)(num_objects, full_dump_period=full_dump_period)
