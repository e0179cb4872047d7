"""Engine registry, AtpgEngine protocol and retired legacy spellings."""

import warnings

import pytest

from repro.atpg import (
    AtpgEngine,
    ENGINES,
    EffortBudget,
    HitecEngine,
    SestEngine,
    SimBasedEngine,
    SimBasedOptions,
    engine_names,
    get_engine,
)
from repro.atpg.registry import EngineSpec, register_engine
from repro.errors import AtpgError
from repro.obs import Tracer

# Any DeprecationWarning raised in this file is a bug: the PR 3
# engine-kwarg shims are retired, so nothing here should warn.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

LEAN = EffortBudget(
    max_backtracks=30,
    max_frames=3,
    max_justify_depth=5,
    max_preimages=2,
    per_fault_seconds=0.2,
    total_seconds=5.0,
    random_sequences=4,
    random_length=10,
    deterministic_clock=True,
)


class TestRegistry:
    def test_canonical_names(self):
        assert engine_names() == ("hitec", "sest", "simbased")

    def test_every_engine_constructible_by_name(self, dk16_rugged):
        classes = {
            "hitec": HitecEngine,
            "sest": SestEngine,
            "simbased": SimBasedEngine,
        }
        for name, cls in classes.items():
            engine = get_engine(name, dk16_rugged.circuit, budget=LEAN)
            assert type(engine) is cls
            assert isinstance(engine, AtpgEngine)
            assert engine.name == name

    def test_attest_alias_resolves_to_simbased(self, dk16_rugged):
        engine = get_engine("Attest", dk16_rugged.circuit, budget=LEAN)
        assert type(engine) is SimBasedEngine

    def test_unknown_engine_lists_known_names(self, dk16_rugged):
        with pytest.raises(AtpgError, match="registered:.*hitec"):
            get_engine("podem3000", dk16_rugged.circuit)

    def test_options_only_for_option_taking_engines(self, dk16_rugged):
        options = SimBasedOptions(batch_size=2)
        engine = get_engine(
            "simbased", dk16_rugged.circuit, budget=LEAN, options=options
        )
        assert engine.options.batch_size == 2
        with pytest.raises(AtpgError, match="does not take"):
            get_engine(
                "hitec", dk16_rugged.circuit, budget=LEAN, options=options
            )

    def test_alias_collision_rejected(self):
        spec = EngineSpec(
            name="other",
            factory=lambda circuit, **kwargs: None,
            description="collides with an existing name",
            aliases=("hitec",),
        )
        with pytest.raises(AtpgError, match="already registered"):
            register_engine(spec)
        assert ENGINES["hitec"].name == "hitec"

    def test_registry_run_matches_direct_construction(self, dk16_rugged):
        circuit = dk16_rugged.circuit
        via_registry = get_engine("hitec", circuit, budget=LEAN).run()
        direct = HitecEngine(circuit, budget=LEAN).run()
        assert via_registry.counters() == direct.counters()

    def test_tracer_is_forwarded(self, dk16_rugged):
        tracer = Tracer()
        engine = get_engine(
            "sest", dk16_rugged.circuit, budget=LEAN, tracer=tracer
        )
        assert engine.tracer is tracer


class TestProtocol:
    def test_protocol_is_runtime_checkable(self, dk16_rugged):
        for name in engine_names():
            engine = get_engine(name, dk16_rugged.circuit, budget=LEAN)
            assert isinstance(engine, AtpgEngine)

    def test_non_engines_rejected(self):
        class NotAnEngine:
            pass

        assert not isinstance(NotAnEngine(), AtpgEngine)


class TestRetiredShims:
    """The PR 3 ``fill_seed``/``seed`` DeprecationWarning shims are
    gone: the legacy spellings now fail loudly instead of warning."""

    def test_hitec_fill_seed_rejected(self, dk16_rugged):
        with pytest.raises(TypeError, match="fill_seed"):
            HitecEngine(dk16_rugged.circuit, budget=LEAN, fill_seed=5)

    def test_sest_fill_seed_rejected(self, dk16_rugged):
        with pytest.raises(TypeError, match="fill_seed"):
            SestEngine(dk16_rugged.circuit, budget=LEAN, fill_seed=5)

    def test_simbased_seed_rejected(self, dk16_rugged):
        with pytest.raises(TypeError, match="seed"):
            SimBasedEngine(dk16_rugged.circuit, budget=LEAN, seed=5)

    def test_modern_spelling_is_silent(self, dk16_rugged):
        """rng_seed= is the one seed spelling, and constructing engines
        with it must not raise any DeprecationWarning (the module-level
        error::DeprecationWarning filter enforces this for the whole
        file; this test pins it explicitly)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            HitecEngine(dk16_rugged.circuit, budget=LEAN, rng_seed=5)
            SestEngine(dk16_rugged.circuit, budget=LEAN, rng_seed=5)
            SimBasedEngine(dk16_rugged.circuit, budget=LEAN, rng_seed=5)

    def test_legacy_counter_exports_removed(self):
        import repro.atpg as atpg

        assert not hasattr(atpg, "LEGACY_COUNTER_KEYS")
        assert not hasattr(atpg, "normalize_counters")
