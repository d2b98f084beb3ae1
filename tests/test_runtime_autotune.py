"""Tests for the measured per-signature autotuner.

The search contract (:mod:`repro.runtime.autotune`): enumerate the
execution space, prune by the calibrated prior, measure only bit-identical
survivors, and never persist a winner worse than the default dispatch.
Plus the integration points: tuned dispatch through
:func:`repro.runtime.convolve`, serve-warmup tuning, and the CLI.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import obs, runtime
from repro.obs.perfledger import reset_ledger
from repro.runtime import autotune as rta
from repro.runtime import tuningcache as tc
from repro.runtime.engine import DEFAULT_WORKSPACE_BYTES
from repro.runtime.signature import ConvSignature

SMALL = ConvSignature.resolve(ih=16, iw=16, ic=8, oc=8, fh=3, fw=3, alpha=8)
DEEP = ConvSignature.resolve(ih=8, iw=8, ic=128, oc=8, fh=3, fw=3, alpha=8)


@pytest.fixture(autouse=True)
def _fresh():
    runtime.clear_cache()
    runtime.configure(threads=0, workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    tc.deactivate()
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    reset_ledger()
    yield
    runtime.clear_cache()
    runtime.configure(threads=0, workspace_bytes=DEFAULT_WORKSPACE_BYTES)
    tc.deactivate()
    obs.disable()
    obs.reset()
    obs.get_registry().reset()
    reset_ledger()


class TestCandidateSpace:
    def test_default_candidate_is_first(self):
        cands = rta.enumerate_candidates(SMALL)
        assert cands[0] == rta.default_candidate(SMALL)
        assert cands[0].dispatch == "serial"
        assert len(set(cands)) == len(cands)

    def test_block_axis_collapses_at_shallow_depth(self):
        # Every candidate runs the full-depth default: the space is
        # kernels x 1 x dispatch modes.
        shallow = {c.block_ic for c in rta.enumerate_candidates(SMALL)}
        assert shallow == {None}

    def test_block_axis_stays_closed_at_depth(self):
        # IC=128: a 64-channel blocking would change the bits, so it can
        # never be eligible and is not searched.
        deep = {c.block_ic for c in rta.enumerate_candidates(DEEP)}
        assert deep == {None}

    def test_admissible_dispatch_modes_enumerated(self):
        modes = {c.dispatch for c in rta.enumerate_candidates(SMALL)}
        assert modes == set(rta.admissible_dispatch_modes())
        assert "serial" in modes
        assert "chunk4m" in modes  # thread-free modes are always admissible

    def test_pool_modes_require_the_cores_to_back_them(self, monkeypatch):
        # A pooled dispatch with more threads than cores can only win by
        # scheduling luck, so it never enters the search space.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert set(rta.admissible_dispatch_modes()) == {"serial", "chunk4m"}
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert set(rta.admissible_dispatch_modes()) == {"serial", "pool2", "chunk4m"}
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert set(rta.admissible_dispatch_modes()) == set(rta.DISPATCH_MODES)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: play safe
        assert set(rta.admissible_dispatch_modes()) == {"serial", "chunk4m"}

    def test_dispatch_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown dispatch mode"):
            rta.dispatch_config("gpu")

    def test_kernel_overrides_share_filter_width(self):
        cands = rta.enumerate_candidates(SMALL)
        alphas = {c.alpha for c in cands}
        assert SMALL.alpha in alphas
        assert len(alphas) > 1  # Gamma_4(2,3) etc. are admissible at r=3


class TestSearch:
    def test_top_k_one_keeps_only_the_default(self):
        entry, rows = rta.explain_signature(SMALL, 1, reps=1, top_k=1)
        measured = [r for r in rows if not r.pruned]
        assert len(measured) == 1
        assert measured[0].candidate == rta.default_candidate(SMALL)
        assert entry.is_default
        assert entry.trials == 1
        assert entry.pruned == len(rows) - 1

    def test_default_always_survives_the_prune(self):
        for top_k in (1, 2, 8, 100):
            _, rows = rta.explain_signature(SMALL, 1, reps=1, top_k=top_k)
            default_row = next(
                r for r in rows if r.candidate == rta.default_candidate(SMALL)
            )
            assert not default_row.pruned

    def test_winner_is_never_worse_than_default(self):
        entry = rta.tune_signature(SMALL, 1, reps=2)
        assert entry.tuned_ns <= entry.default_ns
        assert entry.bit_identical
        assert entry.speedup >= 1.0

    def test_exactly_one_winner_and_it_was_measured(self):
        _, rows = rta.explain_signature(SMALL, 1, reps=1)
        winners = [r for r in rows if r.winner]
        assert len(winners) == 1
        assert winners[0].eligible is True
        assert winners[0].measured_ns is not None

    def test_bit_different_candidates_are_ineligible_not_timed(self):
        # A kernel override is a different Winograd scheme: same math,
        # different bits.  It may never win; it must be marked ineligible
        # instead.
        entry, rows = rta.explain_signature(DEEP, 1, reps=1)
        ineligible = [r for r in rows if r.eligible is False]
        assert ineligible, "expected bit-different candidates at IC=128"
        assert all(not r.winner for r in ineligible)
        choice = entry.choice
        assert (choice.alpha, choice.variant) == (DEEP.alpha, DEEP.variant)
        assert choice.block_ic is None

    def test_search_is_deterministic_in_its_choice_evidence(self):
        # Same seed, same operands: the bit-identity verdicts (the part of
        # the audit that must not depend on the clock) are reproducible.
        _, rows_a = rta.explain_signature(DEEP, 1, reps=1, seed=7)
        _, rows_b = rta.explain_signature(DEEP, 1, reps=1, seed=7)
        verdict = lambda rows: [(r.candidate.label, r.pruned, r.eligible) for r in rows]
        assert verdict(rows_a) == verdict(rows_b)

    def test_search_counters(self):
        obs.enable()
        rta.tune_signature(SMALL, 1, reps=1, top_k=2)
        reg = obs.get_registry()
        assert reg.counter("tune.trials").total() >= 1
        assert reg.counter("tune.pruned").total() >= 1
        wins = [
            (name, labels, val)
            for name, labels, val in reg.top_counters(50)
            if name.startswith("tune.wins.")
        ]
        assert len(wins) == 1

    def test_tune_signatures_builds_a_machine_table(self):
        table = rta.tune_signatures([(SMALL, 1), (SMALL, 4)], reps=1, top_k=2)
        assert len(table.entries) == 2
        assert {e.batch_bucket for e in table.entries.values()} == {1, 4}
        assert table.host == tc.TuningTable.fresh().host
        assert table.calibration_digest


class TestTunedDispatch:
    def test_convolve_consults_the_active_table_bit_identically(self, rng):
        x = rng.standard_normal((1, 16, 16, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 8)).astype(np.float32)
        y_default = runtime.convolve(x, w, alpha=8)
        table = rta.tune_signatures([(SMALL, 1)], reps=2)
        with tc.activated(table):
            y_tuned = runtime.convolve(x, w, alpha=8)
        np.testing.assert_array_equal(y_tuned, y_default)

    def test_tuned_dispatch_feeds_the_runtime_guard(self, rng):
        x = rng.standard_normal((1, 16, 16, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 8)).astype(np.float32)
        table = rta.tune_signatures([(SMALL, 1)], reps=1)
        key = tc.entry_key(SMALL, 1)
        obs.enable()
        with tc.activated(table):
            runtime.convolve(x, w, alpha=8)
            stats = tc.guard_stats()
        assert key in stats  # the dispatch reported its wallclock
        assert stats[key]["disabled"] is False
        reg = obs.get_registry()
        assert reg.counter("tune.dispatch.applied").total() == 1
        assert reg.counter("tune.cache.hits").total() == 1

    def test_untuned_batches_fall_through_to_default(self, rng):
        x = rng.standard_normal((16, 16, 16, 8)).astype(np.float32)  # bucket 16
        w = rng.standard_normal((8, 3, 3, 8)).astype(np.float32)
        table = rta.tune_signatures([(SMALL, 1)], reps=1)  # bucket 1 only
        obs.enable()
        with tc.activated(table):
            runtime.convolve(x, w, alpha=8)
        reg = obs.get_registry()
        assert reg.counter("tune.dispatch.applied").total() == 0
        assert reg.counter("tune.cache.misses").total() == 1

    def test_no_table_means_byte_for_byte_untouched(self, rng):
        # The machine-independence contract of the modeled CI suites: with
        # nothing activated, convolve never consults tuning at all.
        x = rng.standard_normal((1, 16, 16, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 8)).astype(np.float32)
        obs.enable()
        runtime.convolve(x, w, alpha=8)
        reg = obs.get_registry()
        assert reg.counter("tune.dispatch.applied").total() == 0
        assert reg.counter("tune.cache.hits").total() == 0
        assert reg.counter("tune.cache.misses").total() == 0


class TestServeWarmupTuning:
    def test_register_tune_true_installs_the_conv_set(self):
        from repro.serve.registry import ModelRegistry

        registry = ModelRegistry()
        entry = registry.register(
            "net",
            arch="resnet18",
            width_mult=0.125,
            image=16,
            tune=True,
            tune_batch=2,
            tune_reps=1,
        )
        assert entry.tuned_convs == len(entry.conv_signatures) > 0
        table = tc.active_table()
        assert table is not None
        for sig in entry.conv_signatures:
            assert tc.entry_key(sig, 2) in table.entries
        assert entry.describe()["tuned_convs"] == entry.tuned_convs

    def test_register_tune_requires_warmup(self):
        from repro.serve.registry import ModelRegistry

        with pytest.raises(ValueError, match="warmup"):
            ModelRegistry().register(
                "net", arch="resnet18", width_mult=0.125, image=16,
                warmup=False, tune=True,
            )

    def test_untuned_register_reports_zero(self):
        from repro.serve.registry import ModelRegistry

        entry = ModelRegistry().register(
            "net", arch="resnet18", width_mult=0.125, image=16
        )
        assert entry.tuned_convs == 0
        assert tc.active_table() is None


class TestCLI:
    SHAPE = ["--shape", "1x16x16x8", "--oc", "8", "--reps", "1"]

    def test_tune_json_no_save(self, capsys):
        rc = rta.main(["tune", *self.SHAPE, "--no-save", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == tc.SCHEMA_VERSION
        assert len(doc["entries"]) == 1

    def test_tune_writes_then_show_then_activate(self, tmp_path, capsys):
        assert rta.main(["tune", *self.SHAPE, "--out", str(tmp_path)]) == 0
        path = tc.tuning_path(tmp_path)
        assert path.exists()
        capsys.readouterr()
        assert rta.main(["show", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["entries"]
        assert rta.main(["activate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        # activate is a dry-run validation: process state is untouched.
        assert tc.active_table() is None

    def test_activate_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "TUNE_bad.json"
        bad.write_text("{broken")
        assert rta.main(["activate", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_explain_prints_the_audit(self, capsys):
        rc = rta.main(["explain", *self.SHAPE])
        assert rc == 0
        out = capsys.readouterr().out
        assert "WINNER" in out
        assert "candidate" in out

    def test_bad_shape_is_a_usage_error(self, capsys):
        assert rta.main(["tune", "--shape", "16x16x8", "--no-save"]) == 2
        assert "NxHxWxC" in capsys.readouterr().err
