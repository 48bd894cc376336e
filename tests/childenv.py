"""Import path for child processes the tests spawn with a fresh ``env=``.

The child imports this repo's ``src`` tree (found from this file's
location, not the runner's cwd), plus whatever ``PYTHONPATH`` the runner
itself was launched with, so editable installs and site customizations
keep working.
"""

import os
from pathlib import Path


def child_pythonpath() -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    return src if not inherited else os.pathsep.join([src, inherited])
