"""Feature flags (reference ``core/feature_flags.py:19-260``).

Same flag vocabulary, defaults, and ``RAGNIFICENT_FEATURE_<NAME>`` env
surface as the reference's ``FeatureFlagManager``; the %-rollout
``FeatureGate`` is deliberately not ported (SURVEY §2.11 — a per-user
A/B gate is meaningless for a batch engine, and its ``random.random``
path is nondeterministic by design).
"""

from __future__ import annotations

import os
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Union


class FeatureFlag(str, Enum):
    """Flag vocabulary — names and values match the reference enum."""

    SEMANTIC_CHUNKING = "enable_semantic_chunking"
    PARALLEL_PROCESSING = "enable_parallel_processing"
    MEMORY_OPTIMIZATION = "enable_memory_optimization"
    CACHING = "enable_caching"
    BENCHMARKING = "enable_benchmarking"
    SECURITY_FEATURES = "enable_security_features"
    EXPERIMENTAL_EMBEDDINGS = "enable_experimental_embeddings"
    HYBRID_SEARCH = "enable_hybrid_search"
    STREAMING_RESPONSES = "enable_streaming_responses"
    ADAPTIVE_CHUNKING = "enable_adaptive_chunking"


# reference defaults (core/feature_flags.py:50-61)
_DEFAULTS: Dict[str, bool] = {
    FeatureFlag.SEMANTIC_CHUNKING.value: True,
    FeatureFlag.PARALLEL_PROCESSING.value: True,
    FeatureFlag.MEMORY_OPTIMIZATION.value: True,
    FeatureFlag.CACHING.value: True,
    FeatureFlag.BENCHMARKING.value: False,
    FeatureFlag.SECURITY_FEATURES.value: True,
    FeatureFlag.EXPERIMENTAL_EMBEDDINGS.value: False,
    FeatureFlag.HYBRID_SEARCH.value: False,
    FeatureFlag.STREAMING_RESPONSES.value: False,
    FeatureFlag.ADAPTIVE_CHUNKING.value: False,
}

_ENV_PREFIX = "RAGNIFICENT_FEATURE_"
_TRUTHY = ("1", "true", "yes", "on")


def _flag_name(feature: Union[str, FeatureFlag]) -> str:
    return feature.value if isinstance(feature, FeatureFlag) else feature


class FeatureFlagManager:
    """Runtime flag store: defaults < env vars < config dict, with
    enable/disable/toggle mutators (reference semantics)."""

    def __init__(
        self,
        config_dict: Optional[Dict[str, Any]] = None,
        env: Optional[Mapping[str, str]] = None,
    ):
        self.flags: Dict[str, bool] = dict(_DEFAULTS)
        self._load_from_env(os.environ if env is None else env)
        if config_dict:
            self._load_from_dict(config_dict)

    def _load_from_env(self, env: Mapping[str, str]) -> None:
        # reference: RAGNIFICENT_FEATURE_<ENUM NAME>, truthy set
        # {"1","true","yes","on"} (core/feature_flags.py:78-87)
        for flag in FeatureFlag:
            var = f"{_ENV_PREFIX}{flag.name}"
            if var in env:
                self.flags[flag.value] = env[var].lower() in _TRUTHY

    def _load_from_dict(self, config_dict: Dict[str, Any]) -> None:
        for name, value in config_dict.items():
            if name in self.flags:
                self.flags[name] = bool(value)

    def is_enabled(self, feature: Union[str, FeatureFlag]) -> bool:
        return self.flags.get(_flag_name(feature), False)

    def enable(self, feature: Union[str, FeatureFlag]) -> None:
        name = _flag_name(feature)
        if name in self.flags:
            self.flags[name] = True

    def disable(self, feature: Union[str, FeatureFlag]) -> None:
        name = _flag_name(feature)
        if name in self.flags:
            self.flags[name] = False

    def toggle(self, feature: Union[str, FeatureFlag]) -> bool:
        name = _flag_name(feature)
        if name in self.flags:
            self.flags[name] = not self.flags[name]
            return self.flags[name]
        return False

    def get_all_flags(self) -> Dict[str, bool]:
        return dict(self.flags)

    def reset_to_defaults(self) -> None:
        # reference parity (core/feature_flags.py:170-173): the
        # reference's reset also re-runs __init__, so env-var overrides
        # are REAPPLIED and any constructor config_dict is dropped —
        # "defaults" means "freshly constructed", not the _DEFAULTS
        # table verbatim
        self.__init__()

