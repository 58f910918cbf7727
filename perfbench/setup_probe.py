"""Set-up probe: import obslab, load a config and build its problem or field.

    python3 perfbench/setup_probe.py CONFIG.json

Prints ``time.monotonic()`` when set-up is done. The parent reads the same
system-wide clock just before it starts this interpreter, so the difference
is the set-up time a `diagnose` run pays before its first solver sweep or
diagnostic: interpreter start, imports, config load and problem build.
"""

import sys
import time

from obslab import cli  # noqa: F401  (a diagnose run imports the whole CLI)
from obslab.config import build_field, build_problem, load_config

config = load_config(sys.argv[1])
if config.problem.form == "fixture":
    build_field(config)
else:
    build_problem(config)
print(repr(time.monotonic()))
