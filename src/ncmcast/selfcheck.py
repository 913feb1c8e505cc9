"""Fast invariant corpus: a sub-minute gate over the core formulas.

Each check is independent and returns a pass/fail with a diagnostic.
Expected constants were computed with 40-digit arithmetic and frozen.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass

import numpy as np

from . import channel
from .completion import (
    AdaptivePolicy,
    CompletionModel,
    ModelParams,
    NonAdaptivePolicy,
    anc_batch_size,
)
from .gf import GF2m
from .simkit import SimConfig, run_single
from .virtualize import MulticastGroup, build_maxpe

# (p_b, bits) -> 1 - (1 - p_b)^bits, evaluated at 50-digit precision
_ERASURE_PROBES = (
    (1e-4, 100, 0.009950661308629186),
    (1e-5, 10_000, 0.09516303438565249),
    (0.3, 7, 0.9176457),
    (0.0, 50, 0.0),
    (1.0, 50, 1.0),
)

# gain 0 dB at Eb/N0 9.6 dB, BPSK; evaluated at 50-digit precision
_BIT_ERROR_PROBE = (0.0, 9.6, 9.736176018578605e-06)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_field_axioms() -> str:
    rng = np.random.default_rng(7)
    for m in (4, 8, 16):
        gf = GF2m(m)
        a = np.arange(gf.q, dtype=gf.dtype)
        x, y, z = (rng.integers(0, gf.q, 2000, dtype=gf.dtype) for _ in range(3))
        # the tables against the carryless reference, on every pair with a
        # zero operand and on sampled pairs
        left = np.concatenate((a, np.zeros_like(a), x))
        right = np.concatenate((np.zeros_like(a), a, y))
        if not np.array_equal(gf.mul(left, right), gf.mul_carryless(left, right)):
            raise AssertionError(f"m={m}: table multiply differs from carryless")
        if m < 16:
            prod = gf.mul(a[:, None], a[None, :])
            if not np.array_equal(prod, prod.T):
                raise AssertionError(f"m={m}: multiplication not commutative")
        elif not np.array_equal(gf.mul(x, y), gf.mul(y, x)):
            raise AssertionError(f"m={m}: multiplication not commutative")
        nz = a[1:]
        if not np.all(gf.mul(nz, gf.inv(nz)) == 1):
            raise AssertionError(f"m={m}: inverse failure")
        if not np.all(gf.mul(gf.mul(x, y), z) == gf.mul(x, gf.mul(y, z))):
            raise AssertionError(f"m={m}: associativity failure")
        left = gf.mul(x, y ^ z)
        right = gf.mul(x, y) ^ gf.mul(x, z)
        if not np.all(left == right):
            raise AssertionError(f"m={m}: distributivity failure")
    return ("GF(16)/GF(256)/GF(65536): table multiply matches carryless on "
            "zero operands and sampled pairs; axioms hold on sampled triples "
            "(commutativity on all pairs below GF(65536))")


def _check_erasure_formula() -> str:
    for p_b, bits, expected in _ERASURE_PROBES:
        got = channel.erasure_prob(p_b, bits)
        if abs(got - expected) > 1e-12 * (1.0 + abs(expected)):
            raise AssertionError(
                f"erasure_prob({p_b}, {bits}) = {got!r}, expected {expected!r}"
            )
    # every branch of the erfc port, down to where it nears underflow
    x = np.linspace(0.0, 26.0, 5201)
    got = channel._erfc(x)
    expected = np.array([math.erfc(v) for v in x])
    rel = np.abs(got - expected) / expected
    if rel.max() > 1e-13:
        k = int(rel.argmax())
        raise AssertionError(
            f"erfc({x[k]!r}) = {got[k]!r}, math.erfc gives {expected[k]!r}"
        )
    gain, ebn0, expected = _BIT_ERROR_PROBE
    got = channel.bit_error_prob(gain, ebn0)
    if abs(got - expected) > 1e-11 * expected:
        raise AssertionError(f"bit_error_prob probe: {got!r} != {expected!r}")
    return ("packet-loss and bit-error probes match frozen high-precision "
            "values; erfc matches math.erfc on [0, 26]")


def _check_batch_minimality() -> str:
    rng = np.random.default_rng(11)
    for _ in range(300):
        tau = int(rng.integers(1, 24))
        pe = rng.random(tau) * 0.9
        i = int(rng.integers(1, 8))
        j = int(rng.integers(0, tau))
        n = anc_batch_size(pe, j, i)
        window = 1.0 - pe[(j + np.arange(n)) % tau]
        total = np.cumsum(window)
        if total[-1] < i:
            raise AssertionError("selected batch does not cover the deficit")
        if n > 1 and total[-2] >= i:
            raise AssertionError("selected batch is not minimal")
    return "adaptive batch sizes bracket the deficit on 300 random probes"


def _check_zero_erasure_closed_form() -> str:
    params = ModelParams(dof=10, t_p=0.67e-3, t_w=0.2388)
    pe = np.zeros(8)
    for policy in (AdaptivePolicy(pe), NonAdaptivePolicy()):
        model = CompletionModel(pe, params, policy)
        expected = params.dof * params.t_p + params.t_w
        err = abs(model.expected_time() - expected)
        if err > 1e-12:
            raise AssertionError(f"zero-erasure delay off by {err}")
    return "zero-erasure delay equals dof*t_p + t_w for both policies"


def _check_small_oracle_agreement() -> str:
    params = ModelParams(dof=3, t_p=1e-3, t_w=5e-3)
    pe = np.array([0.2, 0.4, 0.1, 0.35, 0.05, 0.25])
    for scheme in ("anc", "nc"):
        policy = AdaptivePolicy(pe) if scheme == "anc" else NonAdaptivePolicy()
        analytic = CompletionModel(pe, params, policy).expected_time()
        config = SimConfig(trials=40_000, seed=1234, params=params)
        summary = run_single(config, pe, policy)
        z = abs(summary.delay.mean - analytic) / summary.delay.se
        if z > 3.0:
            raise AssertionError(
                f"{scheme}: analytic {analytic:.6g} vs simulated "
                f"{summary.delay.mean:.6g} differs by {z:.2f} standard errors"
            )
    return "analytic delays match 40k-trial simulation within 3 SE"


def _check_maxpe_pointwise() -> str:
    rng = np.random.default_rng(3)
    traces = [
        channel.ErasureTrace(rng.random(12), eb_n0_db=5.0, bits_per_packet=100)
        for _ in range(6)
    ]
    group = MulticastGroup(traces)
    virtual = build_maxpe(group).pe.pe
    stacked = np.vstack([t.pe for t in traces])
    if not np.array_equal(virtual, stacked.max(axis=0)):
        raise AssertionError("virtual trace is not the per-slot maximum")
    return "max-erasure virtual trace equals the per-slot maximum"


CHECKS = (
    ("field-axioms", _check_field_axioms),
    ("erasure-formula", _check_erasure_formula),
    ("batch-size-minimality", _check_batch_minimality),
    ("zero-erasure-closed-form", _check_zero_erasure_closed_form),
    ("oracle-agreement-small", _check_small_oracle_agreement),
    ("maxpe-pointwise-max", _check_maxpe_pointwise),
)


def run_selfcheck() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            results.append(CheckResult(name, True, detail))
        except Exception:
            results.append(CheckResult(name, False, traceback.format_exc(limit=3)))
    return results
