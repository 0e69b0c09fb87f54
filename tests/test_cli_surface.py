"""Parser-surface snapshot of the ``python -m repro`` CLI.

Every subcommand's options are pinned to ``cli_surface.json``: option
strings, the default a parse actually yields, choices, nargs, type,
action kind, metavar and required-ness.  Help text and option order are
free to change; anything a script could depend on is not.  Regenerate
only for a deliberate interface change::

    PYTHONPATH=src python tests/test_cli_surface.py --write
"""

import argparse
import json
import sys
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT = Path(__file__).with_name("cli_surface.json")


def _walk(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _walk(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def _options(parser):
    out = {}
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        key = " ".join(a.option_strings) or a.dest
        out[key] = {
            "dest": a.dest,
            "default": repr(parser._defaults.get(a.dest, a.default)),
            "choices": None if a.choices is None else list(a.choices),
            "nargs": a.nargs,
            "type": getattr(a.type, "__name__", repr(a.type)),
            "action": type(a).__name__,
            "metavar": a.metavar,
            "required": a.required,
        }
    return out


def surface(parser=None):
    parser = parser or build_parser()
    return {name: _options(p) for name, p in _walk(parser)}


def test_parser_surface_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = surface()
    assert sorted(actual) == sorted(expected)
    for cmd in expected:
        assert actual[cmd] == expected[cmd], cmd


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_surface.py --write")
    SNAPSHOT.write_text(json.dumps(surface(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")
