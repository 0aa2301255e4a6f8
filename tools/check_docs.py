#!/usr/bin/env python
"""Fail CI when docs reference flags, ops or knobs that don't exist.

Documentation drifts: a renamed ``--flag`` or a retired wire op keeps
living in prose long after the code moved on.  This checker reads the
actual definitions out of the source — the op table by importing
``repro.service.protocol`` (NumPy is the one dependency), everything
else by grepping — and then sweeps the documentation for references to
things that aren't defined:

* **CLI flags**: every ``--long-flag`` token in the docs must appear in
  some ``add_argument("--long-flag"...)`` across ``src/`` and
  ``benchmarks/``, or be a keyword option of a drill bench's
  ``bench_main(...)`` call (``long_flag=default`` declares
  ``--long-flag``); a small allowlist covers external tools like
  pytest/pip whose flags the docs legitimately mention;
* **protocol ops**: every ``OP_NAME`` token must be an ``OP_*`` name of
  ``repro.service.protocol`` (the constants are views of its op table
  ``OPS``).  Every wire-protocol markdown
  table row (an UPPERCASE first cell, a number second) must name a row
  and give its code; the wire tables of ``README.md`` and
  ``docs/ARCHITECTURE.md`` must also list every op;
* **error types**: every ``SomethingError`` token must be a class
  defined in ``repro/errors.py`` or a Python builtin — docs promising
  a typed refusal must name a refusal that exists;
* **metric names**: every ``repro_*`` token must be an entry of the
  catalog in ``repro/obs/names.py``, and — the only check that runs in
  *both* directions — every catalog entry must appear in the
  ``docs/OPERATIONS.md`` metrics table: an undocumented metric is as
  much drift as a documented ghost;
* **environment variables**: every ``REPRO_*`` token must be read by
  some file under ``src/``, ``tests/`` or ``benchmarks/`` — through
  ``os.environ.get("REPRO_...")``, ``os.environ["REPRO_..."]`` or
  ``os.getenv("REPRO_...")`` — so the docs never promise a knob the
  code has dropped.

Checked files: ``docs/*.md`` and ``README.md``.  Exit status 0 when
clean, 1 with a ``file:line`` listing otherwise::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Flags of external tools the docs may reference without defining.
EXTERNAL_FLAGS = {
    "--cov", "--cov-report", "--cov-fail-under",  # pytest-cov
    "--benchmark-disable",  # pytest-benchmark
    "--smoke-test",  # historical alias guard; harmless if unused
    "--version",
}

_ADD_ARGUMENT = re.compile(r"""add_argument\(\s*["'](--[a-z0-9][a-z0-9-]*)["']""")
_DOC_FLAG = re.compile(r"(?<![\w.\-])(--[a-z0-9][a-z0-9-]*)")
_DOC_OP = re.compile(r"\b(OP_[A-Z_]+)\b")
#: A wire-table row: first cell is the op name (UPPERCASE + underscore),
#: second cell is its numeric code.
_TABLE_OP_ROW = re.compile(r"^\|\s*`?([A-Z][A-Z_]+)`?\s*\|\s*(\d+)\s*\|")
_ERROR_CLASS = re.compile(r"^class\s+(\w+Error)\b", re.MULTILINE)
_DOC_ERROR = re.compile(r"\b([A-Z][A-Za-z]*Error)\b")
#: Docs whose wire table must list every op.
WIRE_TABLE_DOCS = ("README.md", "ARCHITECTURE.md")
#: A catalog entry in repro/obs/names.py — the module keeps the fixed
#: ``"name": _spec("kind", ...)`` one-entry-per-line shape so this
#: checker needs no imports.
_CATALOG_ENTRY = re.compile(
    r'^\s*"(repro_[a-z0-9_]+)":\s*_spec\(', re.MULTILINE)
_DOC_METRIC = re.compile(r"\b(repro_[a-z0-9_]+)\b")
_DOC_ENV = re.compile(r"\b(REPRO_[A-Z0-9_]+)\b")
_ENV_READ = re.compile(
    r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](REPRO_[A-Z0-9_]+)["']""")


def bench_main_flags(source: str) -> set:
    """The flags a drill bench declares as keyword options of its
    ``repro.workloads.drill.bench_main`` call."""
    return {"--" + keyword.arg.replace("_", "-")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "bench_main"
            for keyword in node.keywords if keyword.arg}


def known_flags() -> set:
    flags = set(EXTERNAL_FLAGS)
    for root in ("src", "benchmarks", "tools", "examples"):
        base = REPO / root
        if not base.is_dir():
            continue
        for path in base.rglob("*.py"):
            source = path.read_text()
            flags.update(_ADD_ARGUMENT.findall(source))
            flags.update(bench_main_flags(source))
    return flags


def _protocol():
    if str(REPO / "src") not in sys.path:
        sys.path.insert(0, str(REPO / "src"))
    from repro.service import protocol

    return protocol


def op_codes() -> dict:
    """Op name -> code, from the op table ``repro.service.protocol.OPS``."""
    return {op.name: code for code, op in _protocol().OPS.items()}


def known_ops() -> set:
    """Op names plus every ``OP_*`` name the protocol module defines:
    the constants (views of the table) and ``OP_NAMES``."""
    return set(op_codes()) | {
        name for name in vars(_protocol()) if name.startswith("OP_")}


def known_errors() -> set:
    import builtins

    errors = set(
        _ERROR_CLASS.findall(
            (REPO / "src" / "repro" / "errors.py").read_text()))
    errors.update(name for name in dir(builtins)
                  if name.endswith("Error"))
    return errors


def known_metrics() -> set:
    names_py = REPO / "src" / "repro" / "obs" / "names.py"
    if not names_py.is_file():
        return set()
    return set(_CATALOG_ENTRY.findall(names_py.read_text()))


def known_env_vars() -> set:
    """The ``REPRO_*`` environment variables the code and tests read."""
    names = set()
    for root in ("src", "tests", "benchmarks"):
        for path in (REPO / root).rglob("*.py"):
            names.update(_ENV_READ.findall(path.read_text()))
    return names


def doc_files() -> list:
    docs = sorted((REPO / "docs").glob("*.md")) if (
        REPO / "docs").is_dir() else []
    readme = REPO / "README.md"
    if readme.is_file():
        docs.append(readme)
    return docs


def check() -> list:
    flags = known_flags()
    codes = op_codes()
    ops = known_ops()
    errors = known_errors()
    metrics = known_metrics()
    env_vars = known_env_vars()
    documented_metrics = set()
    problems = []
    for path in doc_files():
        rel = path.relative_to(REPO)
        tabled = set()
        for lineno, line in enumerate(
                path.read_text().splitlines(), start=1):
            for name in _DOC_METRIC.findall(line):
                documented_metrics.add(name)
                if name not in metrics:
                    problems.append(
                        "%s:%d: unknown metric %s (not in the "
                        "repro/obs/names.py catalog)"
                        % (rel, lineno, name))
            for name in _DOC_ENV.findall(line):
                if name not in env_vars:
                    problems.append(
                        "%s:%d: environment variable %s is read by no "
                        "file under src/, tests/ or benchmarks/"
                        % (rel, lineno, name))
            for flag in _DOC_FLAG.findall(line):
                if flag not in flags:
                    problems.append(
                        "%s:%d: unknown CLI flag %s" % (rel, lineno, flag))
            for name in _DOC_OP.findall(line):
                if name not in ops:
                    problems.append(
                        "%s:%d: unknown protocol op %s"
                        % (rel, lineno, name))
            for name in _DOC_ERROR.findall(line):
                if name not in errors:
                    problems.append(
                        "%s:%d: unknown error type %s"
                        % (rel, lineno, name))
            row = _TABLE_OP_ROW.match(line.strip())
            if not row:
                continue
            name, code = row.group(1), int(row.group(2))
            tabled.add(name)
            if name not in codes:
                problems.append(
                    "%s:%d: wire table names unknown op %s"
                    % (rel, lineno, name))
            elif code != codes[name]:
                problems.append(
                    "%s:%d: wire table gives %s code %d, the op table %d"
                    % (rel, lineno, name, code, codes[name]))
        if path.name in WIRE_TABLE_DOCS:
            for name in sorted(set(codes) - tabled):
                problems.append(
                    "%s: wire table has no row for op %s" % (rel, name))
    # The reverse direction is scoped to the runbook: only a sweep that
    # actually read OPERATIONS.md can claim a metric is undocumented.
    if any(path.name == "OPERATIONS.md" for path in doc_files()):
        for name in sorted(metrics - documented_metrics):
            problems.append(
                "docs/OPERATIONS.md: catalog metric %s is undocumented "
                "(add it to the metrics table)" % name)
    return problems


def main() -> int:
    docs = doc_files()
    problems = check()
    if problems:
        print("docs reference things the code does not define:",
              file=sys.stderr)
        for problem in problems:
            print("  " + problem, file=sys.stderr)
        return 1
    print("docs consistent: %d file(s), %d known flags, %d known ops, "
          "%d known error types, %d catalogued metrics, "
          "%d environment variables"
          % (len(docs), len(known_flags()), len(known_ops()),
             len(known_errors()), len(known_metrics()),
             len(known_env_vars())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
