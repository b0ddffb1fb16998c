"""What importing the package and starting the CLI load, and where the shared helpers live."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import jamofuse

# runs in a new process: argv[1] is a scratch directory, argv[2:] bundled data files
NUMPY_FREE = """
import json, sys
import jamofuse.hangul, jamofuse.oracle, jamofuse.subword
loaded = {"import": "numpy" in sys.modules}
from jamofuse.cli import main
tmp, pairs, corpus = sys.argv[1:]
runs = {
    "--help": ["--help"],
    "oracle-align": ["oracle-align", "했다", "--units", "하,았,다"],
    "oracle-align --in": ["oracle-align", "--in", corpus, "--out", f"{tmp}/aligned.txt"],
    "oracle-stats": ["oracle-stats", "--in", corpus, "--json", f"{tmp}/stats.json", "--csv", f"{tmp}/stats.csv"],
    "vocab-train": ["vocab-train", "--in", pairs, "--size", "200", "--out", f"{tmp}/vocab.tsv"],
    "encode": ["encode", "했다", "--vocab", f"{tmp}/vocab.tsv", "--out", f"{tmp}/encoded.tsv"],
}
for name, argv in runs.items():
    loaded[name] = (main(argv), "numpy" in sys.modules)
print(json.dumps(loaded, ensure_ascii=False))
"""


def test_oracle_subword_and_their_subcommands_start_without_numpy(tmp_path):
    data = resources.files("jamofuse.data")
    argv = [str(tmp_path), str(data / "verb_past_pairs.tsv"), str(data / "inflections.jsonl")]
    env = {**os.environ, "PYTHONPATH": str(Path(jamofuse.__file__).parents[1])}  # the package this suite imports
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE, *argv], capture_output=True, text=True, check=True, env=env
    )
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {
        "import": False,
        "--help": [0, False],
        "oracle-align": [0, False],
        "oracle-align --in": [0, False],
        "oracle-stats": [0, False],
        "vocab-train": [0, False],
        "encode": [0, False],
    }
    assert result.stderr == ""
    assert {p.name for p in tmp_path.iterdir()} == {"aligned.txt", "stats.json", "stats.csv", "vocab.tsv", "encoded.tsv"}


class TestLazyRoot:
    def test_every_exported_name_resolves_to_its_module_object(self):
        for name in set(jamofuse.__all__) - {"__version__"}:
            value = getattr(jamofuse, name)
            assert getattr(sys.modules[value.__module__], name) is value
        assert isinstance(jamofuse.__version__, str)
        from jamofuse import Pipeline, pipeline

        assert jamofuse.Pipeline is Pipeline is pipeline.Pipeline
        assert jamofuse.align is jamofuse.oracle.align

    def test_dir_lists_the_exports(self):
        assert set(jamofuse.__all__) <= set(dir(jamofuse))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            jamofuse.no_such_name  # noqa: B018
        assert not hasattr(jamofuse, "no_such_name")


SHARED = ["ConfigError", "write_atomic", "open_text", "csv_text", "not_utf8"]


def test_shared_helpers_are_one_object_wherever_exposed():
    from jamofuse import common

    modules = [
        importlib.import_module(f"jamofuse.{info.name}")
        for info in pkgutil.iter_modules(jamofuse.__path__)
    ]
    for name in SHARED:
        assert getattr(common, name).__module__ == "jamofuse.common"
        for m in modules:
            assert getattr(m, name, getattr(common, name)) is getattr(common, name), (m.__name__, name)
