import time

import pytest

import ncmcast.channel as channel_mod
from ncmcast.gf import GF2m
from ncmcast.selfcheck import run_selfcheck

TRUE_ERASURE_PROB = channel_mod.erasure_prob


def test_fresh_tree_passes_quickly():
    start = time.perf_counter()
    results = run_selfcheck()
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results), [
        (r.name, r.detail) for r in results if not r.passed
    ]
    assert elapsed < 60.0


def test_corrupted_erasure_formula_caught(monkeypatch):
    """Mutation probe: an off-by-one packet size must trip the named check."""

    def off_by_one(p_b, bits):
        return TRUE_ERASURE_PROB(p_b, bits - 1 if bits > 1 else bits)

    monkeypatch.setattr(channel_mod, "erasure_prob", off_by_one)
    results = {r.name: r for r in run_selfcheck()}
    assert not results["erasure-formula"].passed
    assert results["zero-erasure-closed-form"].passed


def test_corrupted_bit_error_formula_caught(monkeypatch):
    true_fn = channel_mod.bit_error_prob

    def scaled(gain_db, eb_n0_db, modulation="bpsk"):
        return 1.001 * true_fn(gain_db, eb_n0_db, modulation)

    monkeypatch.setattr(channel_mod, "bit_error_prob", scaled)
    results = {r.name: r for r in run_selfcheck()}
    assert not results["erasure-formula"].passed


@pytest.mark.parametrize("name", ["_T", "_U", "_P", "_Q", "_R", "_S"])
def test_corrupted_erfc_coefficient_caught(monkeypatch, name):
    """Mutation probe: a coefficient off in its eighth digit, in any of the
    erfc port's six polynomials, must trip the erfc grid."""
    coef = list(getattr(channel_mod, name))
    coef[2] *= 1.0 + 1e-8
    monkeypatch.setattr(channel_mod, name, tuple(coef))
    results = {r.name: r for r in run_selfcheck()}
    assert not results["erasure-formula"].passed
    assert "math.erfc" in results["erasure-formula"].detail


def test_corrupted_zero_log_caught(monkeypatch):
    """Mutation probe: a zero whose log leaves the zero region of the
    antilog table multiplies like one, and the field check must see it."""
    build = GF2m._build_tables

    def corrupted(self):
        build(self)
        self._log[0] = 0

    monkeypatch.setattr(GF2m, "_build_tables", corrupted)
    results = {r.name: r for r in run_selfcheck()}
    assert not results["field-axioms"].passed
    assert "carryless" in results["field-axioms"].detail
