"""Time grig's set-up in a fresh interpreter and print it in seconds.

    PYTHONPATH=src python3 bench/setup_probe.py WORK_DIR

Set-up is what a workload pays before its first runner call: importing
grig.cli, then parsing each invocation's arguments and resolving its
config (WORK_DIR/invocations.json, written by bench/worker.py).
"""

import json
import os
import sys
import time

with open(os.path.join(sys.argv[1], "invocations.json")) as fh:
    ARGVS = json.load(fh)

start = time.perf_counter()
import grig.cli  # noqa: E402
import grig.config  # noqa: E402

parser = grig.cli.build_parser()
for argv in ARGVS:
    grig.config.load_config(parser.parse_args(argv).config)
print(repr(time.perf_counter() - start))
