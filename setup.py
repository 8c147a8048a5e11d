"""Package metadata for ``pip install -e .``.

The metadata lives here (there is no ``pyproject.toml``) so that an editable
install works fully offline, where the ``wheel`` package that PEP 660
editable builds need with older setuptools is not available — pip falls back
to the legacy ``setup.py develop`` code path.  ``repro lint`` also uses this
file as the repository-root marker in checkouts without ``.git``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing ``repro`` would need its dependencies first.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(encoding="utf-8"),
    re.M,
).group(1)

setup(
    name="ses-repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
