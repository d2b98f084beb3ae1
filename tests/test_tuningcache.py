"""Tests for the persisted tuning table: schema, activation, runtime guard.

Satellite coverage for the measured autotuner's storage layer
(:mod:`repro.runtime.tuningcache`): roundtrip fidelity, rejection of
corrupt/stale/foreign files with the typed :class:`TuningCacheError`,
generation bumps invalidating cached consultations, and the never-worse
runtime guard disabling entries whose win stops reproducing.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.runtime import ConvSignature
from repro.runtime import tuningcache as tc

SIG = ConvSignature.resolve(ih=16, iw=16, ic=8, oc=8, fh=3, fw=3, alpha=8)


@pytest.fixture(autouse=True)
def _clean_activation():
    tc.deactivate()
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    yield
    tc.deactivate()
    obs.disable()
    obs.reset()
    obs.get_registry().reset()


def _entry(
    sig: ConvSignature = SIG,
    bucket: int = 1,
    *,
    dispatch: str = "pool2",
    default_ns: float = 2e6,
    tuned_ns: float = 1e6,
) -> tc.TunedEntry:
    return tc.TunedEntry(
        signature=sig,
        batch_bucket=bucket,
        choice=tc.TunedChoice(sig.alpha, sig.variant, None, dispatch),
        default_ns=default_ns,
        tuned_ns=tuned_ns,
        bit_identical=True,
        trials=5,
        pruned=3,
    )


def _table(*entries: tc.TunedEntry) -> tc.TuningTable:
    table = tc.TuningTable.fresh()
    for entry in entries or (_entry(),):
        table.add(entry)
    return table


class TestKeys:
    def test_batch_bucket_rounds_up_to_power_of_two(self):
        assert [tc.batch_bucket(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [
            1, 2, 4, 4, 8, 8, 16,
        ]

    def test_batch_bucket_rejects_nonpositive(self):
        with pytest.raises(ValueError, match=">= 1"):
            tc.batch_bucket(0)

    def test_entry_key_carries_signature_and_bucket(self):
        key = tc.entry_key(SIG, 4)
        assert SIG.label in key
        assert key.endswith("@b4")

    def test_tuning_path_is_host_keyed(self):
        path = tc.tuning_path()
        assert path.name.startswith("TUNE_")
        assert path.suffix == ".json"


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        table = _table(_entry(bucket=1), _entry(bucket=8))
        path = table.save(tmp_path / "TUNE_x.json")
        loaded = tc.TuningTable.load(path)
        assert loaded.host == table.host
        assert loaded.calibration_digest == table.calibration_digest
        assert set(loaded.entries) == set(table.entries)
        for key, entry in table.entries.items():
            assert loaded.entries[key] == entry

    def test_corrupt_json_rejected_with_typed_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(tc.TuningCacheError, match="not valid JSON"):
            tc.TuningTable.load(path)

    def test_truncated_file_rejected(self, tmp_path):
        full = (tmp_path / "full.json")
        _table().save(full)
        cut = tmp_path / "cut.json"
        cut.write_text(full.read_text()[: len(full.read_text()) // 2])
        with pytest.raises(tc.TuningCacheError):
            tc.TuningTable.load(cut)

    def test_stale_schema_refused(self, tmp_path):
        doc = _table().to_json()
        doc["schema_version"] = tc.SCHEMA_VERSION + 1
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(tc.TuningCacheError, match="schema_version"):
            tc.TuningTable.load(path)

    def test_v1_file_refused(self, tmp_path):
        # Version-1 verdicts were measured against the 64-channel blocked
        # default, which is no longer the default path.
        doc = _table().to_json()
        doc["schema_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(tc.TuningCacheError, match="schema_version"):
            tc.TuningTable.load(path)

    def test_missing_entries_object_refused(self):
        with pytest.raises(tc.TuningCacheError, match="entries"):
            tc.TuningTable.from_json({"schema_version": tc.SCHEMA_VERSION})

    def test_entry_key_mismatch_refused(self):
        doc = _table().to_json()
        (key,) = list(doc["entries"])
        doc["entries"]["wrong@b1"] = doc["entries"].pop(key)
        with pytest.raises(tc.TuningCacheError, match="does not match"):
            tc.TuningTable.from_json(doc)

    def test_bit_unfaithful_entry_refused(self):
        doc = _entry().to_json()
        doc["bit_identical"] = False
        with pytest.raises(tc.TuningCacheError, match="bit-identity"):
            tc.TunedEntry.from_json(doc)

    def test_non_power_of_two_bucket_refused(self):
        doc = _entry().to_json()
        doc["batch_bucket"] = 3
        with pytest.raises(tc.TuningCacheError, match="power of two"):
            tc.TunedEntry.from_json(doc)

    def test_error_is_a_value_error(self, tmp_path):
        # Callers that predate the typed error still catch it.
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            tc.TuningTable.load(path)


class TestActivation:
    def test_inactive_lookup_is_none_and_silent(self):
        obs.enable()
        assert tc.lookup(SIG, 1) is None
        reg = obs.get_registry()
        assert reg.counter("tune.cache.hits").total() == 0
        assert reg.counter("tune.cache.misses").total() == 0

    def test_file_on_disk_changes_nothing_until_activated(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _table().save(tc.tuning_path(tmp_path))
        assert tc.active_table() is None
        assert tc.lookup(SIG, 1) is None

    def test_activate_then_lookup(self):
        entry = _entry()
        tc.activate(_table(entry))
        hit = tc.lookup(SIG, 1)
        assert hit is not None
        assert hit.entry == entry
        assert hit.key == entry.key

    def test_lookup_buckets_the_batch(self):
        tc.activate(_table(_entry(bucket=4)))
        assert tc.lookup(SIG, 3) is not None  # 3 -> bucket 4
        assert tc.lookup(SIG, 5) is None  # 5 -> bucket 8, untuned

    def test_hit_and_miss_counters_only_while_active(self):
        obs.enable()
        tc.activate(_table(_entry(bucket=1)))
        assert tc.lookup(SIG, 1) is not None
        assert tc.lookup(SIG, 16) is None
        reg = obs.get_registry()
        assert reg.counter("tune.cache.hits").total() == 1
        assert reg.counter("tune.cache.misses").total() == 1

    def test_host_mismatch_refused_without_force(self, tmp_path):
        table = _table()
        table.host = "someone-elses-box"
        path = table.save(tmp_path / "TUNE_foreign.json")
        with pytest.raises(tc.TuningCacheError, match="someone-elses-box"):
            tc.activate(path)
        assert tc.active_table() is None
        forced = tc.activate(path, force=True)
        assert forced.host == "someone-elses-box"

    def test_activation_bumps_generation(self):
        g0 = tc.generation()
        tc.activate(_table())
        g1 = tc.generation()
        tc.deactivate()
        g2 = tc.generation()
        assert g0 < g1 < g2

    def test_generation_invalidates_cached_consultations(self):
        # A consumer holding a TunedLookup from an earlier activation can
        # tell it is stale: the activation epoch moved on.
        tc.activate(_table())
        stale = tc.lookup(SIG, 1)
        assert stale is not None
        tc.activate(_table())  # re-activate: epoch bump
        fresh = tc.lookup(SIG, 1)
        assert fresh is not None
        assert stale.generation != fresh.generation
        assert fresh.generation == tc.generation()

    def test_activated_context_restores_prior(self):
        outer = _table(_entry(bucket=1))
        tc.activate(outer)
        inner = _table(_entry(bucket=8))
        with tc.activated(inner) as active:
            assert active is inner
            assert tc.active_table() is inner
        assert tc.active_table() is outer
        with tc.activated(inner):
            pass
        assert tc.active_table() is outer

    def test_install_requires_active_table(self):
        with pytest.raises(tc.TuningCacheError, match="activate"):
            tc.install(_entry())
        tc.activate(tc.TuningTable.fresh())
        tc.install(_entry())
        assert tc.lookup(SIG, 1) is not None


class TestRuntimeGuard:
    def test_reproducing_win_keeps_entry_alive(self):
        entry = _entry(default_ns=2e6, tuned_ns=1e6)
        tc.activate(_table(entry))
        for _ in range(10):
            tc.record_runtime(entry.key, 1, 1e6)  # as fast as tuned
        assert tc.lookup(SIG, 1) is not None
        assert tc.guard_stats()[entry.key] == {"strikes": 0, "disabled": False}

    def test_regression_disables_entry_after_strikes(self):
        obs.enable()
        entry = _entry(default_ns=2e6, tuned_ns=1e6)
        tc.activate(_table(entry))
        slow = entry.default_ns * tc.GUARD_FACTOR * 2
        for _ in range(tc.GUARD_STRIKES):
            assert tc.lookup(SIG, 1) is not None
            tc.record_runtime(entry.key, 1, slow)
        # Guard tripped: dispatch falls back to the default plan.
        assert tc.lookup(SIG, 1) is None
        assert tc.guard_stats()[entry.key]["disabled"] is True
        assert obs.get_registry().counter("tune.regressions").total() == 1

    def test_one_fast_call_resets_the_strike_count(self):
        entry = _entry(default_ns=2e6, tuned_ns=1e6)
        tc.activate(_table(entry))
        slow = entry.default_ns * tc.GUARD_FACTOR * 2
        tc.record_runtime(entry.key, 1, slow)
        tc.record_runtime(entry.key, 1, slow)
        tc.record_runtime(entry.key, 1, 1e6)  # win reproduces: forgiven
        tc.record_runtime(entry.key, 1, slow)
        assert tc.lookup(SIG, 1) is not None
        assert tc.guard_stats()[entry.key]["strikes"] == 1

    def test_expectation_scales_with_live_batch(self):
        # Tuned at bucket 1; a batch-8 call is allowed ~8x the default time
        # before it counts as a strike.
        entry = _entry(bucket=1, default_ns=1e6, tuned_ns=0.5e6)
        tc.activate(_table(entry))
        for _ in range(tc.GUARD_STRIKES + 1):
            tc.record_runtime(entry.key, 8, 7e6)  # < 1e6 * 8 * GUARD_FACTOR
        assert tc.lookup(SIG, 1) is not None

    def test_reactivation_clears_guard_state(self):
        entry = _entry(default_ns=2e6, tuned_ns=1e6)
        tc.activate(_table(entry))
        slow = entry.default_ns * tc.GUARD_FACTOR * 2
        for _ in range(tc.GUARD_STRIKES):
            tc.record_runtime(entry.key, 1, slow)
        assert tc.lookup(SIG, 1) is None
        tc.activate(_table(entry))  # fresh activation, fresh guards
        assert tc.lookup(SIG, 1) is not None
        assert tc.guard_stats() == {}

    def test_record_runtime_ignores_unknown_keys(self):
        tc.activate(_table())
        tc.record_runtime("nonexistent@b1", 1, 1e9)  # must not raise
        assert tc.guard_stats() == {}


class TestEntryProperties:
    def test_speedup(self):
        assert _entry(default_ns=2e6, tuned_ns=1e6).speedup == pytest.approx(2.0)

    def test_is_default_detects_the_untuned_strategy(self):
        default = tc.TunedEntry(
            signature=SIG,
            batch_bucket=1,
            choice=tc.TunedChoice(SIG.alpha, SIG.variant, None, "serial"),
            default_ns=1e6,
            tuned_ns=1e6,
            bit_identical=True,
            trials=1,
            pruned=0,
        )
        assert default.is_default
        assert not _entry().is_default
