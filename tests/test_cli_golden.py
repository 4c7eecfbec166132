"""Golden CLI outputs: the exit code, stdout, stderr and reduce log of the
canonical commands on every named fixture at its default size, compared
byte for byte with tests/data/cli_golden.json.

OHCP chains (equal-cost optima may differ) and tu-check witnesses (another
valid circuit may be found first) are left out.  The oracle's witness pair is
pinned on mobius, whose search one command runs past it, and so is the pair
that rel-torsion --mode tu builds on the first b-odd circuit it meets.
Rewrite the data file, only when an output is meant to change, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from plink.cli import main
from plink.fixtures import FIXTURE_NAMES
from plink.scxio import parse_scx

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def outputs(name, tmp, read):
    """{command: {"exit", "stdout", "stderr"[, "log"]}} of every golden
    command on one fixture; read() returns and clears (stdout, stderr)."""
    scx, log = str(tmp / f"{name}.scx"), tmp / f"{name}.log"
    out = {}

    def run(key, *argv):
        record = {"exit": main(list(argv))}
        record["stdout"], record["stderr"] = read()
        if "--log" in argv:
            record["log"] = log.read_text()
        out[key] = record

    run("generate", "generate", name)
    Path(scx).write_text(out["generate"]["stdout"])
    dim = parse_scx(out["generate"]["stdout"]).dim
    run("link-check", "link-check", scx, "--json")
    for p in range(dim + 1):
        run(f"homology p={p}", "homology", scx, "--p", str(p), "--json")
    for p in range(dim):
        run(f"rel-torsion p={p}", "rel-torsion", scx, "--p", str(p),
            "--mode", "oracle", "--budget", "3000", "--json")
    for p in range(dim):
        run(f"rel-torsion tu p={p}", "rel-torsion", scx, "--p", str(p),
            "--mode", "tu", "--json")
    if name == "mobius":    # past the oracle's witness, its 5,328th pair
        run("rel-torsion p=1 budget=6000", "rel-torsion", scx, "--p", "1",
            "--mode", "oracle", "--budget", "6000", "--json")
    for gate in ("full", "p=1"):
        run(f"reduce {gate}", "reduce", scx, "--gate", gate, "--log", str(log))
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_outputs_match_golden(name, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())[name]
    assert outputs(name, tmp_path, lambda: tuple(capsys.readouterr())) == golden


if __name__ == "__main__":
    import tempfile
    stdout, stderr = io.StringIO(), io.StringIO()

    def read():
        texts = stdout.getvalue(), stderr.getvalue()
        for buf in (stdout, stderr):
            buf.seek(0)
            buf.truncate()
        return texts

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        data = {name: outputs(name, Path(tmp), read) for name in FIXTURE_NAMES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
