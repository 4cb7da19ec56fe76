"""Tests for the ``SamplerConfig``/``make_sampler`` front door and the
constructor validation contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BroadcastSamplerSystem,
    CachingSamplerSystem,
    DistinctSamplerSystem,
    SamplerConfig,
    SlidingWindowBottomS,
    SlidingWindowBottomSFeedback,
    SlidingWindowSystem,
    SlidingWindowWithReplacement,
    WithReplacementSampler,
    get_variant,
    make_sampler,
    register_variant,
    sampler_variants,
)
from repro.core.api import SamplerVariant
from repro.errors import ConfigurationError


class TestMakeSampler:
    def test_accepts_config_object(self):
        sampler = make_sampler(
            SamplerConfig(variant="infinite", num_sites=2, sample_size=3)
        )
        assert isinstance(sampler, DistinctSamplerSystem)

    def test_accepts_variant_string_plus_overrides(self):
        sampler = make_sampler("sliding", num_sites=2, window=5)
        assert isinstance(sampler, SlidingWindowSystem)

    def test_config_overrides_merge(self):
        base = SamplerConfig(variant="infinite", num_sites=2, sample_size=3)
        sampler = make_sampler(base, sample_size=7)
        assert sampler.sample_size == 7

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sampler variant"):
            make_sampler("no-such-variant", num_sites=1)

    def test_bad_config_type_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sampler(42)

    def test_windowed_variant_needs_window(self):
        with pytest.raises(ConfigurationError, match="window"):
            make_sampler("sliding", num_sites=2)

    def test_infinite_variant_rejects_window(self):
        with pytest.raises(ConfigurationError, match="window"):
            make_sampler("infinite", num_sites=2, window=5)

    def test_variant_resolution(self):
        cases = [
            (dict(variant="infinite", num_sites=2, sample_size=2), DistinctSamplerSystem),
            (dict(variant="broadcast", num_sites=2, sample_size=2), BroadcastSamplerSystem),
            (dict(variant="caching", num_sites=2, sample_size=2), CachingSamplerSystem),
            (dict(variant="sliding", num_sites=2, window=5), SlidingWindowSystem),
            (dict(variant="sliding", num_sites=2, window=5, sample_size=3), SlidingWindowBottomSFeedback),
            (dict(variant="sliding", num_sites=2, window=5, sample_size=2), SlidingWindowBottomSFeedback),
            (dict(variant="sliding-local-push", num_sites=2, window=5, sample_size=3), SlidingWindowBottomS),
            (dict(variant="with-replacement", num_sites=2, sample_size=3), WithReplacementSampler),
            (dict(variant="with-replacement", num_sites=2, sample_size=3, window=5), SlidingWindowWithReplacement),
        ]
        for fields, cls in cases:
            assert type(make_sampler(SamplerConfig(**fields))) is cls, fields

    def test_caching_default_cache_size_is_sample_size(self):
        sampler = make_sampler("caching", num_sites=2, sample_size=6)
        assert sampler.cache_size == 6
        explicit = make_sampler(
            "caching", num_sites=2, sample_size=6, cache_size=0
        )
        assert explicit.cache_size == 0

    def test_registry_is_extensible(self):
        name = "test-only-variant"
        register_variant(
            SamplerVariant(
                name=name,
                factory=lambda config: DistinctSamplerSystem(
                    num_sites=config.num_sites, sample_size=config.sample_size
                ),
                summary="registered by the test suite",
            )
        )
        try:
            assert name in sampler_variants()
            assert get_variant(name).summary.startswith("registered")
            sampler = make_sampler(name, num_sites=2, sample_size=2)
            assert isinstance(sampler, DistinctSamplerSystem)
        finally:
            from repro.core.api import _REGISTRY

            _REGISTRY.pop(name, None)


#: Constructor calls for the validation contract: every system must
#: reject num_sites < 1, sample_size < 1, and (where windowed) window < 1
#: with ConfigurationError.
_CTORS = {
    "infinite": lambda **kw: DistinctSamplerSystem(
        num_sites=kw["num_sites"], sample_size=kw["sample_size"]
    ),
    "broadcast": lambda **kw: BroadcastSamplerSystem(
        num_sites=kw["num_sites"], sample_size=kw["sample_size"]
    ),
    "caching": lambda **kw: CachingSamplerSystem(
        num_sites=kw["num_sites"], sample_size=kw["sample_size"], cache_size=4
    ),
    "sliding": lambda **kw: SlidingWindowSystem(
        num_sites=kw["num_sites"], window=kw["window"]
    ),
    "local-push": lambda **kw: SlidingWindowBottomS(
        num_sites=kw["num_sites"],
        window=kw["window"],
        sample_size=kw["sample_size"],
    ),
    "feedback": lambda **kw: SlidingWindowBottomSFeedback(
        num_sites=kw["num_sites"],
        window=kw["window"],
        sample_size=kw["sample_size"],
    ),
    "wr": lambda **kw: WithReplacementSampler(
        num_sites=kw["num_sites"], sample_size=kw["sample_size"]
    ),
    "wr-sliding": lambda **kw: SlidingWindowWithReplacement(
        num_sites=kw["num_sites"],
        window=kw["window"],
        sample_size=kw["sample_size"],
    ),
}

_WINDOWED = {"sliding", "local-push", "feedback", "wr-sliding"}


class TestUniformConstructorValidation:
    @pytest.mark.parametrize("name", sorted(_CTORS), ids=sorted(_CTORS))
    def test_rejects_bad_parameters(self, name):
        build = _CTORS[name]
        good = dict(num_sites=2, sample_size=2, window=5)
        assert build(**good) is not None
        with pytest.raises(ConfigurationError):
            build(**{**good, "num_sites": 0})
        with pytest.raises(ConfigurationError):
            build(**{**good, "num_sites": -3})
        if name != "sliding":  # s is fixed to 1 for Algorithms 3-4
            with pytest.raises(ConfigurationError):
                build(**{**good, "sample_size": 0})
        if name in _WINDOWED:
            with pytest.raises(ConfigurationError):
                build(**{**good, "window": 0})
            with pytest.raises(ConfigurationError):
                build(**{**good, "window": -1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_sites", 0),
            ("sample_size", 0),
            ("window", -1),
            ("cache_size", -1),
            # Unchecked, a float, a string or a bool in an integer field
            # would be truncated, compared or taken as 0/1 by the samplers.
            ("num_sites", 3.0),
            ("num_sites", "3"),
            ("sample_size", 2.5),
            ("sample_size", True),
            ("window", 2.5),
            ("window", True),
            ("seed", "x"),
            ("seed", 9.5),
            ("shards", 2.0),
            ("workers", False),
            ("workers", None),
            ("cache_size", "x"),
            ("cache_size", 4.0),
            ("algorithm", "sha256"),
            ("algorithm", "python"),
        ],
    )
    def test_config_validate_rejects_bad_fields(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SamplerConfig(**{field: value}).validate()

    def test_config_holds_numpy_integer_fields_as_ints(self):
        config = SamplerConfig(
            num_sites=np.int64(3), window=np.uint8(5), cache_size=np.int32(4)
        ).validate()
        assert config == SamplerConfig(num_sites=3, window=5, cache_size=4)
        types = {type(config.num_sites), type(config.window), type(config.cache_size)}
        assert types == {int}
