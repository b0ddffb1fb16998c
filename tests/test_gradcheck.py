"""grad_check's reuse of repeated forwards: where it applies, what it restores, and that it cannot be seen.

The library computes every call; only inside grad_check do GRULayer.forward
and Pipeline.forward serve repeats of the check's first call.
"""

import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from jamofuse import gradcheck
from jamofuse.gradcheck import check_pipeline, grad_check
from jamofuse.layers import GRULayer
from jamofuse.pipeline import Pipeline, PipelineConfig
from jamofuse.subword import train_vocab

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402

TEXT = "하다"


def vocab():
    return train_vocab([TEXT], 16, mode="charlist")


def found():
    """The forward methods the two classes hold now."""
    return vars(GRULayer)["forward"], vars(Pipeline)["forward"]


class TestOutsideACheck:
    """The library computes every call and returns its own, writable arrays."""

    def test_equal_gru_calls_both_compute(self):
        gru = GRULayer(3, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3))
        (hs_a, cache_a), (hs_b, cache_b) = gru.forward(x), gru.forward(x.copy())
        assert hs_a is not hs_b and cache_a.hs is hs_a and cache_b.hs is hs_b
        assert hs_a.flags.writeable and hs_b.flags.writeable and hs_a.tobytes() == hs_b.tobytes()
        hs_a[0, 0] = 7.0
        assert hs_b[0, 0] != 7.0

    def test_equal_pipeline_calls_both_compute(self, monkeypatch):
        pipe = Pipeline(PipelineConfig(dim=4, fusion="cross-attention", cls_bypass=True), vocab(), 0)
        gru_calls, compute = [], GRULayer.forward
        monkeypatch.setattr(GRULayer, "forward", lambda self, *args, **kw: gru_calls.append(1) or compute(self, *args, **kw))
        (out_a, cache_a), (out_b, cache_b) = pipe.forward(TEXT), pipe.forward([TEXT])
        assert len(gru_calls) == 6 and out_a is not out_b and out_a.tobytes() == out_b.tobytes()
        assert out_a.flags.writeable and out_b.flags.writeable
        assert cache_a.stage2.hs.flags.writeable and cache_a.stage2.hs is not cache_b.stage2.hs


class TestInstalledOnlyForTheCheck:
    """grad_check swaps the two forwards for the check's duration and puts back what it found."""

    def small_check(self, loss_extra=lambda: None):
        """A grad_check of a small pipeline whose loss calls loss_extra first."""
        pipe = Pipeline(PipelineConfig(compression="linear", dim=2, fusion="summation"), vocab(), 0)

        def loss_fn(with_grad):
            loss_extra()
            out, cache = pipe.forward(TEXT)
            if with_grad:
                pipe.backward(np.ones(out.shape), cache)
            return float(out.sum())

        return grad_check(loss_fn, pipe.params.group)

    def test_restored_after_a_check_returns(self):
        before, seen = found(), []
        self.small_check(lambda: seen.append(found()))
        assert found() == before and all(s[0] is not before[0] and s[1] is not before[1] for s in seen)

    def test_restored_after_a_check_raises(self):
        before, calls = found(), []

        def fail_on_third_call():
            calls.append(1)
            if len(calls) == 3:
                raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            self.small_check(fail_on_third_call)
        assert found() == before

    def test_a_nested_check_swaps_nothing(self):
        before, seen = found(), []

        def inner_check():
            if not seen:
                seen.append(found())
                self.small_check(lambda: seen.append(found()))

        self.small_check(inner_check)
        assert len(seen) > 2 and len(set(seen)) == 1 and seen[0] != before
        assert found() == before

    def test_the_tracers_wrappers_are_restored(self):
        originals, t = found(), tracer.Tracer()
        t.install()
        try:
            traced = found()
            assert traced != originals
            pipe = Pipeline(PipelineConfig(dim=4, fusion="summation"), vocab(), 0)
            report = check_pipeline(pipe, TEXT, 0)
            assert found() == traced
        finally:
            t.uninstall()
        assert found() == originals
        # the tracer sees only the forwards that compute: the leading one, and fewer than the loss calls
        assert t.calls["gradcheck.grad_check"] == 1 and t.counts["gradcheck.loss_calls"] == 2 * report.coords_checked + 1
        assert 1 < t.calls["pipeline.forward"] < 0.5 * t.counts["gradcheck.loss_calls"]


@pytest.mark.parametrize("scheme, compression, fusion, cls_bypass", [
    ("jamo", "principles", "cross-attention", True),
    ("stroke", "linear", "concatenation", False),
    ("cji", "attention", "cross-attention", True),
    ("bts", "principles", "summation", False),
])
def test_the_reuse_cannot_be_seen(monkeypatch, scheme, compression, fusion, cls_bypass):
    config = PipelineConfig(scheme=scheme, dim=4, compression=compression, fusion=fusion, cls_bypass=cls_bypass)
    reused = check_pipeline(Pipeline(config, vocab(), 5), TEXT, 5)
    monkeypatch.setattr(gradcheck, "_reuse", contextlib.nullcontext)
    assert check_pipeline(Pipeline(config, vocab(), 5), TEXT, 5) == reused
