"""One timed ``solidyn run``: the CLI entry point under the host sampler.

    python3 perfbench/child.py SAMPLES_JSON run CONFIG [options...]

Runs ``solidyn.cli.main`` on the arguments after SAMPLES_JSON inside a
``reference.Sampler`` and writes the sampler's block times and busy time to
SAMPLES_JSON.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from reference import Sampler


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    samples_path, cli_argv = Path(argv[0]), argv[1:]
    with Sampler() as sampler:
        from solidyn import cli

        code = cli.main(cli_argv)
    samples_path.write_text(json.dumps(
        {"blocks": sampler.blocks, "busy_s": sampler.busy_s}))
    return code


if __name__ == "__main__":
    sys.exit(main())
