"""Entry point of the workload process that run.py spawns.

It imports ``eqbundle.cli`` before anything else and prints ``ready`` the
moment that import returns, so the parent times interpreter start plus
imports; stream.py then runs the requested mode.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import eqbundle.cli  # noqa: F401

    print("ready", flush=True)
    import stream

    sys.exit(stream.main())
