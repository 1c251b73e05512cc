from collections import Counter

import numpy as np
import pytest

from susyjc import algebra, hilbert
from susyjc.algebra import (BITWISE_ZERO, anticommutator, commutator,
                            interior_mask, run_all_checks)
from susyjc.errors import DimensionMismatch
from susyjc.hilbert import (BandedOp, HilbertConfig, exchange_op,
                            excitation_number)


def test_commutator_helpers():
    a = BandedOp.diagonal(2, [1.0], offset=1)
    b = BandedOp.diagonal(2, [1.0], offset=-1)
    assert np.array_equal(commutator(a, b).dense(), np.diag([1.0, -1.0]))
    assert np.array_equal(anticommutator(a, b).dense(), np.eye(2))
    for helper in (commutator, anticommutator):
        with pytest.raises(DimensionMismatch):
            helper(a, BandedOp.diagonal(3, 1.0))


def test_interior_mask_counts():
    cfg = HilbertConfig(10)
    assert interior_mask(cfg, 1).sum() == 2 * 10
    assert interior_mask(cfg, 2).sum() == 2 * 9
    # both spin copies of each interior Fock level are kept
    mask = interior_mask(cfg, 1)
    assert mask[cfg.index("g", 9)] and mask[cfg.index("e", 9)]
    assert not mask[cfg.index("g", 10)] and not mask[cfg.index("e", 10)]


def test_all_identities_pass_at_default_tolerance():
    reports = run_all_checks(HilbertConfig(12))
    assert len(reports) == 34
    assert len({r.identity_name for r in reports}) == 34
    assert all(r.passes(1e-12) for r in reports)
    worst = max(r.residual for r in reports)
    assert worst < 1e-12
    assert not all(r.passes(0.0) for r in reports)


def test_each_operator_is_built_once(monkeypatch):
    calls = Counter()
    for name in ("exchange_op", "excitation_number", "su11_generator", "spin_op"):
        def counted(cfg, *key, factory=getattr(hilbert, name), name=name):
            calls[name, *key] += 1
            return factory(cfg, *key)
        monkeypatch.setattr(hilbert, name, counted)
    run_all_checks(HilbertConfig(6))
    assert len(calls) == 17 and set(calls.values()) == {1}


def test_cutoff_insensitive_identities_are_bitwise_zero():
    # Identities assembled from identical floats on both sides come out
    # exactly zero; the remaining full-space ones only round at the last bit.
    for n_max in (8, 21):
        reports = {r.identity_name: r for r in run_all_checks(HilbertConfig(n_max))}
        assert BITWISE_ZERO <= set(reports)
        for name in BITWISE_ZERO:
            assert reports[name].residual == 0.0, name
            assert not reports[name].truncation_sensitive
            assert reports[name].projector == algebra.PROJ_FULL
        for name, rep in reports.items():
            if not rep.truncation_sensitive and name not in BITWISE_ZERO:
                assert rep.residual < 1e-14, name


def test_sensitive_identities_really_need_their_projector():
    # the masked residual is tiny, but the full-space defect of the closure
    # {Q+,Q-} = N+ sits at the cutoff edge and is O(n_max)
    cfg = HilbertConfig(12)
    qp = exchange_op(cfg, "Q", "plus")
    qm = exchange_op(cfg, "Q", "minus")
    delta = anticommutator(qp, qm) - excitation_number(cfg, "plus")
    assert delta.masked_max() > 1.0
    assert delta.masked_max(interior_mask(cfg, 1)) < 1e-13


def test_casimir_constant_on_interior():
    cfg = HilbertConfig(16)
    rep = [r for r in run_all_checks(cfg) if r.identity_name == "K^2 = -3/16"][0]
    assert rep.projector == algebra.PROJ_IN2
    assert rep.residual < 1e-14


def test_projector_labels_are_recorded():
    reports = run_all_checks(HilbertConfig(8))
    # a row is truncation-sensitive exactly when it needs a projector
    for rep in reports:
        assert rep.truncation_sensitive == (rep.projector != algebra.PROJ_FULL)
    names = {r.identity_name: r.projector for r in reports}
    assert names["Q+^2 = 0"] == algebra.PROJ_FULL
    assert names["{Q+,Q-} = N+"] == algebra.PROJ_IN1
    assert names["[K+,K-] = -2Kz"] == algebra.PROJ_IN2
    assert names["[Sx,Sy] = i Sz (excited)"] == algebra.PROJ_EXC
