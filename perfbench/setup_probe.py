"""Start-up probe: what every CLI invocation pays before its command runs.

    python3 perfbench/setup_probe.py CLI_ARG...

Imports ``quasilattice.cli``, parses the arguments and loads the config the
way ``cli.main`` does, then exits without running the command.
"""

import sys

from quasilattice import cli

args = vars(cli.build_parser().parse_args(sys.argv[1:]))
args.pop("command")
cli.load_config(args.pop("config", None), args)
