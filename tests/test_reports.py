"""Suite reports are bit-identical across reruns.

Each suite runs twice in one process at small arguments and must print
the same bytes.  The reports of ``suite ch`` and ``suite bruhat`` at
their default arguments use exact arithmetic only, so their sha256
digests are pinned: they do not depend on numpy or LAPACK, and a change
to what those suites compute or print shows up here.
"""

import hashlib

import pytest

from juryconv.cli import main

SMALL_ARGS = {
    "closure": ["--n", "3", "--trials", "5"],
    "schoenberg": ["--n", "2", "--trials", "10", "--h-grid", "0.5:0.1:0.5"],
    "horn": ["--n", "3", "--trials", "5"],
    "fh": ["--n", "2", "--trials", "5", "--alpha-grid", "0.3,-0.5"],
    "bruhat": ["--n", "3"],
    "prob": [],
    "ch": ["--trials", "5"],
}

DEFAULT_DIGESTS = {
    "ch": "a8ac16b01025bf58226f250d1eb7bde8112bc164b536aae31bc882312eb8e375",
    "bruhat": "535872328bdd18fb5b78603d919a52e33581927d45bcf1df4fcbf8779e5df64c",
}


def _report(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_rerun_prints_identical_report(name, capsys):
    argv = ["suite", name, "--seed", "5"] + SMALL_ARGS[name]
    assert _report(capsys, argv) == _report(capsys, argv)


@pytest.mark.parametrize("name", sorted(DEFAULT_DIGESTS))
def test_default_report_digest(name, capsys):
    out = _report(capsys, ["suite", name])
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_DIGESTS[name]
