"""The README's library example runs as written and prints what it promises,
its quick start clusters its family without a warning, and its config
example holds only keys that a setting reads."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from taskclust import cli, fileio
from taskclust.spectral import adjusted_rand_index

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_library_use_block_clusters_the_plant():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue() == "1.0\n"
    assert adjusted_rand_index(namespace["part"].assignment, namespace["membership"]) == 1.0


def quick_start_commands(text):
    """The argv of each taskclust command in the README's bash block."""
    block = re.search(r"^```bash\n(.*?)^```$", text, flags=re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("taskclust ")]


def test_quick_start_clusters_the_plant_without_a_warning(tmp_path, monkeypatch, capsys):
    """Steps 1-5 of the quick start, run in process: every step exits 0 and
    writes nothing to stderr, and step 5's partition is the plant."""
    commands = quick_start_commands(README.read_text())
    upto = [argv[0] for argv in commands].index("cluster") + 1
    assert [argv[0] for argv in commands[:upto]] == ["synth", "estimate", "filter", "complete", "cluster"]
    monkeypatch.chdir(tmp_path)
    for argv in commands[:upto]:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
    membership = fileio.read_json("tasks/membership.json")["membership"]
    assert adjusted_rand_index(fileio.read_partition_json("partition.json").assignment, membership) == 1.0


def test_config_example_names_only_settings(tmp_path):
    section = README.read_text().split("## Determinism and configuration", 1)[1]
    doc = re.search(r"^```json\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    config = tmp_path / "config.json"
    config.write_text(doc)
    stages = [key for key in json.loads(doc) if key != "seed"]
    assert stages == ["synth", "estimate", "cluster"]
    for stage in stages:
        args = cli.build_parser().parse_args([stage, "--config", str(config)])
        assert cli._settings(args, stage)["seed"] == cli.stage_seed(7, stage)
