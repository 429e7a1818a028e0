"""Package metadata and the ``repro`` console script.

Everything lives here, with no ``pyproject.toml``: a PEP 517 build needs
the ``wheel`` package, which an offline machine may not have.  Install
through the legacy path instead::

    pip install -e . --no-use-pep517 --no-build-isolation

which puts the ``repro`` command (``repro.cli:main``) on ``PATH``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Reproduction of Perais & Seznec, HPCA 2014: practical "
                "data value speculation (VTAGE + FPC)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The compiled cycle kernel is built from this source on first use.
    package_data={"repro.pipeline": ["_ckernel.c"]},
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
