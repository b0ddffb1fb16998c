"""Self-tests of the benchmark's tracer and workloads, on small inputs.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from jamofuse import pipeline, subword  # noqa: E402

# the callables each workload must reach; together they cover every target
FIRES = {
    "embed-stream": [
        "hangul.decompose", "subchar.tokenize", "subword.encode", "layers.gru.forward",
        "layers.embedding.forward", "layers.cross_attention.forward", "layers.conv2x1.forward",
        "pipeline.build", "pipeline.forward", "pipeline.stage1", "pipeline.stage2", "pipeline.fuse",
        "training.word_vectors", "checkpoint.load_checkpoint",
    ],
    "train-pairs": [
        "subword.train_vocab", "training.train", "optim.adamw.step", "layers.gru.backward",
        "layers.embedding.backward", "layers.conv2x1.backward", "pipeline.backward",
        "pipeline.backward_stage1", "pipeline.backward_stage2", "pipeline.backward_fuse",
        "checkpoint.save_checkpoint",
    ],
    "gradcheck-sweep": [
        "gradcheck.grad_check", "layers.linear.forward", "layers.linear.backward",
        "layers.cross_attention.backward",
    ],
    "oracle-corpus": ["hangul.decompose", "oracle.align", "oracle.classify_mod", "oracle.corpus_stats"],
}
ORACLE_NAMES = ["oracle.align", "oracle.classify_mod", "oracle.corpus_stats"]
STAYS_ZERO = {
    "embed-stream": ["layers.gru.backward", *ORACLE_NAMES],
    "train-pairs": ORACLE_NAMES,
    "gradcheck-sweep": ORACLE_NAMES,
    "oracle-corpus": [],
}


def bindings() -> dict:
    """Every value bound in a jamofuse module or class namespace, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "jamofuse" or name.startswith("jamofuse."):
            for key, value in vars(module).items():
                out[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Small traced runs of every workload, plus the bindings before and after."""
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "TRAIN_CONFIG", dataclasses.replace(workloads.TRAIN_CONFIG, epochs=1))
    patch.setattr(workloads, "COMBOS", [("jamo", "cross-attention"), ("jamo", "concatenation")])
    ops = {"embed-stream": 1, "train-pairs": 1, "gradcheck-sweep": 2, "oracle-corpus": 1}
    before = bindings()
    out = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(seed=3, workdir=tmp_path_factory.mktemp(name))
            workload.prepare()
            out[name] = (workload, tracer.run_passes(workload, range(ops[name])))
    finally:
        patch.undo()
    return out, before, bindings()


def test_targets_cover_every_callable_once():
    names = [t.name for t in tracer.TARGETS]
    assert len(names) == len(set(names))
    assert set(names) == {n for fired in FIRES.values() for n in fired}


@pytest.mark.parametrize("name", list(FIRES))
def test_mapped_callables_fire(passes, name):
    calls = passes[0][name][1].tracer.calls
    assert [n for n in FIRES[name] if calls[n] == 0] == []


@pytest.mark.parametrize("name", list(STAYS_ZERO))
def test_predicted_zero_callables_stay_zero(passes, name):
    calls = passes[0][name][1].tracer.calls
    assert {n: calls[n] for n in STAYS_ZERO[name]} == {n: 0 for n in STAYS_ZERO[name]}


def test_wrappers_are_removed(passes):
    _, before, after = passes
    assert {key: after[key] for key in before} == before


@pytest.mark.parametrize("name", list(FIRES))
def test_traced_outputs_equal_untraced(passes, name):
    run = passes[0][name][1]
    assert [r.output for r in run.traced] == [r.output for r in run.untraced]


@pytest.mark.parametrize("name", list(FIRES))
def test_checks_pass_and_self_times_account_for_spans(passes, name):
    workload, run = passes[0][name]
    assert [p for i, r in enumerate(run.untraced) for p in workload.check(i, r)] == []
    t = run.tracer
    assert sum(t.self_ns.values()) == t.top_level_ns()
    assert t.top_level_ns() / 1e9 <= run.traced_s


def test_encode_is_traced_where_pipeline_looks_it_up():
    vocab = subword.train_vocab(["하다 했다"], 20, mode="charlist")
    pipe = pipeline.Pipeline.build(pipeline.PipelineConfig(dim=4), vocab, seed=0)
    t = tracer.Tracer()
    t.install()
    try:
        assert pipeline.subword_encode.__name__ == "traced"
        pipe.forward("하다")
    finally:
        t.uninstall()
    names = [t.names[i] for i in t.span_name]
    encode = names.index("subword.encode")
    assert names[t.span_parent[encode]] == "pipeline.forward"
    assert pipeline.subword_encode is subword.encode


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert workloads.percentile_tail(list(range(100))) == (89, 90.0)
    assert workloads.percentile_tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert workloads.percentile_tail(list(range(19))) == (18, 100.0)
    assert workloads.percentile_tail(list(range(20))) == (9, 50.0)


def test_inputs_repeat_for_a_seed_and_texts_are_distinct():
    texts = workloads.embed_texts(5)
    assert texts == workloads.embed_texts(5)
    assert len(set(texts)) == len(texts) == workloads.POOL_CHUNKS * workloads.CHUNK
    assert texts != workloads.embed_texts(6)
    oracle = workloads.OracleCorpus(5, HERE)
    oracle.prepare()
    assert oracle.lines(2) == oracle.lines(2)
    sizes = sorted(len(chosen) for chosen in oracle.lines(2)[1])
    assert sizes == sorted(workloads.ORACLE_BLOCK * workloads.ORACLE_CHUNK_BLOCKS)


def test_seeded_words_are_made_of_bundled_syllables():
    forms = workloads.bundled_forms()
    model = workloads.SyllableModel(forms)
    rng = np.random.default_rng(0)
    words = [model.word(rng) for _ in range(500)]
    assert {c for w in words for c in w} <= {c for f in forms for c in f}
    assert {len(w) for w in words} <= {len(f) for f in forms}


def test_train_latency_samples_are_epochs(tmp_path):
    workload = workloads.TrainPairs(seed=3, workdir=tmp_path)
    workload.prepare()
    result = workload.op(0)
    assert len(result.latencies) == workloads.TRAIN_CONFIG.epochs - 1
    assert 0 < sum(b - a for a, b in result.latencies) < result.seconds


def test_failed_checks_exit_nonzero_with_a_result(monkeypatch, capsys):
    monkeypatch.setattr(workloads.OracleCorpus, "check", lambda self, i, result: ["forced failure"])
    code = run.run_one(run.parse_args(["--workload", "oracle-corpus", "--seed", "1", "--seconds", "1"]))
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_every_per_layer_metric():
    listed = [(m["name"], m["unit"]) for m in benchmark_json()["per_layer"]]
    produced = [(name, unit) for name, (_, unit) in tracer.Tracer().layer_metrics().items()]
    assert listed == produced + [("cli.import_ms", "ms")]


def test_command_prints_every_end_to_end_metric_last():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "oracle-corpus", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "embed-stream", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_gauge_factor_uses_runs_in_or_nearest_an_interval():
    gauge = hostspeed.Gauge()
    assert gauge.factor(0.0, 1.0) == 1.0
    nominal = hostspeed.NOMINAL_S
    gauge.stamps.extend([0.0, 0.1, 0.2, 0.3, 0.4])
    gauge.times.extend([nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal])
    assert gauge.factor(0.15, 0.45) == 0.5
    assert gauge.factor(0.0, 0.1) == pytest.approx(3 / 4)  # widened to the next run
    assert gauge.factor(-1.0, -0.5) == pytest.approx(3 / 4)


def test_gauge_leaves_its_kernel_out_and_restores_the_handler():
    gauge = hostspeed.Gauge()
    before = signal.getsignal(signal.SIGPROF)
    gauge.start()
    try:
        while len(gauge.times) < 5:
            sum(range(10_000))
    finally:
        gauge.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert gauge.kernel_cpu >= sum(gauge.times) > 0
    assert gauge.cpu() == pytest.approx(time.thread_time() - gauge.kernel_cpu, abs=1e-3)
