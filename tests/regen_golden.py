#!/usr/bin/env python3
"""Rewrite tests/golden/*.json from the current implementation.

Run from the repository root:  python3 tests/regen_golden.py
"""

import contextlib
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from golden_battery import BATTERY

from almostchar.cli import main


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run():
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    for name, argv, expected_exit in BATTERY:
        code, out = capture(argv)
        if code != expected_exit:
            raise SystemExit(f"{name}: exit {code}, expected {expected_exit}")
        (golden / f"{name}.json").write_text(out)
        print(f"wrote golden/{name}.json ({len(out)} bytes)")


if __name__ == "__main__":
    run()
