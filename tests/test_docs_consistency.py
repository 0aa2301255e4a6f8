"""The docs stay honest: tools/check_docs.py gates them in tier-1 too.

Runs the checker the same way CI does (a subprocess) and also pins its
detection logic: a doc referencing a flag or op the code does not
define, a wire-table row giving an op the wrong code, and a wire table
missing an op must each fail.
"""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepoDocsAreConsistent:
    def test_checker_exits_zero(self):
        result = subprocess.run(
            [sys.executable, str(CHECKER)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_docs_exist(self):
        assert (REPO / "docs" / "ARCHITECTURE.md").is_file()
        assert (REPO / "docs" / "OPERATIONS.md").is_file()


class TestCheckerDetectsDrift:
    def test_unknown_flag_and_op_are_caught(self, tmp_path,
                                            monkeypatch):
        checker = _load_checker()
        bad = tmp_path / "BAD.md"
        bad.write_text(
            "Run with `--no-such-flag-anywhere` and send an\n"
            "OP_TELEPORT frame under `REPRO_NO_SUCH_KNOB=1`.\n"
            "| TELEPORT | 99 | nope | nope |\n")
        monkeypatch.setattr(checker, "doc_files", lambda: [bad])
        monkeypatch.setattr(
            checker.pathlib.Path, "relative_to",
            lambda self, other: self, raising=False)
        problems = checker.check()
        assert any("--no-such-flag-anywhere" in p for p in problems)
        assert any("OP_TELEPORT" in p for p in problems)
        assert any("REPRO_NO_SUCH_KNOB" in p for p in problems)
        assert any("TELEPORT" in p and "wire table" in p
                   for p in problems)

    def _problems(self, monkeypatch, doc):
        checker = _load_checker()
        monkeypatch.setattr(checker, "doc_files", lambda: [doc])
        monkeypatch.setattr(
            checker.pathlib.Path, "relative_to",
            lambda self, other: self, raising=False)
        return checker.check()

    def test_wrong_wire_code_is_caught(self, tmp_path, monkeypatch):
        bad = tmp_path / "BAD.md"
        bad.write_text("| PROMOTE | 11 | empty | banner |\n"
                       "| `ADD_IDEM` | 11 | key + elements | count |\n")
        problems = self._problems(monkeypatch, bad)
        assert len(problems) == 1
        assert "PROMOTE code 11" in problems[0]
        assert "op table 10" in problems[0]

    def test_wire_table_missing_an_op_is_caught(self, tmp_path,
                                                monkeypatch):
        readme = tmp_path / "README.md"
        readme.write_text("".join(
            "| %s | %d | x | y |\n" % (name, code)
            for name, code in _load_checker().op_codes().items()
            if name != "METRICS"))
        problems = self._problems(monkeypatch, readme)
        assert len(problems) == 1
        assert "no row for op METRICS" in problems[0]

    def test_known_references_pass(self, tmp_path, monkeypatch):
        checker = _load_checker()
        good = tmp_path / "GOOD.md"
        good.write_text(
            "Use `--interval-ms` and `--max-batch`; the ops are\n"
            "OP_SUBSCRIBE and OP_DELTA; scale with REPRO_BENCH_SCALE.\n"
            "| PROMOTE | 10 | empty | banner |\n")
        monkeypatch.setattr(checker, "doc_files", lambda: [good])
        monkeypatch.setattr(
            checker.pathlib.Path, "relative_to",
            lambda self, other: self, raising=False)
        assert checker.check() == []


def test_bench_main_keyword_options_count_as_flags():
    checker = _load_checker()
    assert checker.bench_main_flags(
        "bench_main('ttl', __doc__, run, smoke, argv, stall_budget_ms=1.0,"
        " port=None)") == {"--stall-budget-ms", "--port"}
    assert "--clients-per-driver" in checker.known_flags()
