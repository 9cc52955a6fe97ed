"""Legacy setup shim.

The container has no network and no ``wheel`` package, so PEP 517 editable
installs (which build a wheel) fail. ``pip install -e . --no-use-pep517``
takes the legacy ``setup.py develop`` path, which needs only setuptools:
``pip install -e . --no-use-pep517 --no-build-isolation``. Installing is
optional; the tests and jobs also run with ``PYTHONPATH=src``.
"""
from setuptools import setup

setup()
