"""Run one CLI op in a fresh interpreter: ``python3 perfbench/cold.py ROOT ARGV...``.

The parent times this whole process, so the figure covers interpreter
start-up, importing ``sunmetro.cli`` and the first, cold op.  The op's output
goes to this process's stdout and stderr; its exit code is this process's.
"""

import sys

if __name__ == "__main__":
    sys.path.insert(0, f"{sys.argv[1]}/src")
    from sunmetro.cli import main

    sys.exit(main(sys.argv[2:]))
