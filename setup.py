"""Package metadata for ``repro``.

A classic ``setup.py`` (no ``pyproject.toml``): the target environment
ships setuptools without the ``wheel`` package, so PEP 660 editable
installs fail and ``pip install -e .`` must fall back to the legacy
develop path.  Tests and the CLI also run straight from the tree with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Fuzzy extractors for biometric identification: "
                "sublinear sketch search, protocols and a TCP service",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
