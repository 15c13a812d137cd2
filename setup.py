"""Setup shim for offline editable installs.

The build box used for this reproduction has no ``wheel`` package
available offline, so PEP-660 editable installs fail; this shim lets
``pip install -e . --no-build-isolation`` fall back to
``setup.py develop``.  All metadata lives in ``pyproject.toml``; the
package is pure Python and has nothing to compile.
"""

from setuptools import setup

setup()
