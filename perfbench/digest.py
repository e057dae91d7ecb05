"""SHA-256 digest of every CLI output at a fixed seed.

    python3 perfbench/digest.py [--seed 7]

Runs the five CLI commands with the default configuration into a fresh
perfbench/out/digest/ and prints one `<sha256>  <file>` line per output
file, also written to perfbench/out/digest/SHA256SUMS.  Run it on two
commits and compare the lines to show that a refactor leaves the outputs
unchanged.  It stores no reference and gates nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
COMMANDS = ("motdip", "snr", "spectrum", "transit", "scatter")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    for name in [k for k in os.environ if k.startswith("YBCAVITY_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    from ybcavity import cli

    out = HERE / "out" / "digest"
    shutil.rmtree(out, ignore_errors=True)
    files = out / "files"
    for command in COMMANDS:
        code = cli.main(["--out", str(files), "--seed", str(args.seed),
                         command])
        if code != 0:
            print(f"{command} exited {code}", file=sys.stderr)
            return code
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
             for p in sorted(files.iterdir())]
    (out / "SHA256SUMS").write_text("".join(lines))
    sys.stdout.write("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
