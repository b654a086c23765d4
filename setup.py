"""Setuptools entry point.

The offline environment has no ``wheel`` package, so PEP-517 editable installs
fail; this classic ``setup.py`` enables ``pip install -e . --no-build-isolation
--no-use-pep517`` (and plain ``python setup.py develop``) to work without it.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of NEC: Speaker Selective Cancellation via Neural "
        "Enhanced Ultrasound Shadowing (DSN 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=2.0", "scipy"],
)
