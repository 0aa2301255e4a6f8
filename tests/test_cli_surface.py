"""Pin the serving CLIs' option surface against a golden table.

``cli_surface_golden.json`` holds one row per option of every
subcommand of the six serving CLIs: its flags, dest, default, type,
choices, action and required bit, as the parsers stood before the
flag groups moved into :mod:`repro.cli`.  The current parsers must
reproduce it exactly, apart from the two deliberate changes applied in
:func:`expected_surface`.

Regenerate the table only when a CLI change is intended::

    PYTHONPATH=src python tests/test_cli_surface.py > \\
        tests/cli_surface_golden.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys

from repro.hashing.family import FAMILY_KINDS

GOLDEN = pathlib.Path(__file__).with_name("cli_surface_golden.json")

CLIS = ("repro.service", "repro.replication", "repro.mpserve",
        "repro.cluster", "repro.chaos", "repro.obs")


def _option_row(action: argparse.Action) -> dict:
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", None),
        "choices": (list(action.choices)
                    if action.choices is not None else None),
        "action": type(action).__name__,
        "required": action.required,
    }


def cli_surface() -> list:
    """One row per option of every subcommand of every serving CLI."""
    rows = []
    for name in CLIS:
        parser = importlib.import_module(name + ".__main__").build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        for command, sub in subparsers.choices.items():
            rows.extend(
                {"cli": name, "command": command, **_option_row(action)}
                for action in sub._actions
                if action.option_strings
                and not isinstance(action, argparse._HelpAction))
    return rows


def keyed(rows) -> dict:
    return {(row["cli"], row["command"], row["flags"][-1]): row
            for row in rows}


def expected_surface() -> dict:
    """The golden table plus the two intended surface changes."""
    table = keyed(json.loads(GOLDEN.read_text()))
    # mpserve's --family was the one family flag without choices: an
    # unknown kind parsed and then killed the writer child at startup.
    table["repro.mpserve", "serve", "--family"]["choices"] = sorted(
        FAMILY_KINDS)
    # A cluster node hashes with the shard map's family; the flag was
    # overwritten whenever it disagreed, so it never chose anything.
    del table["repro.cluster", "serve", "--family"]
    return table


def test_cli_surface_matches_golden_table():
    assert keyed(cli_surface()) == expected_surface()


def test_every_cli_is_covered():
    golden = json.loads(GOLDEN.read_text())
    assert {row["cli"] for row in golden} == set(CLIS)


if __name__ == "__main__":
    sys.stdout.write("[\n%s\n]\n" % ",\n".join(
        json.dumps(row, sort_keys=True) for row in cli_surface()))
