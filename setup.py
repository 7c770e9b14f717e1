"""Packaging for the LDP range-query reproduction.

The only runtime dependency is numpy: every compute kernel
(:mod:`repro.core.kernels.reference`) is vectorised numpy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Parse the version instead of importing the package: setup.py must work
# in build front-ends that have not installed numpy yet.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="ldp-range-queries",
    version=VERSION,
    description=(
        "Answering range queries under local differential privacy: "
        "hierarchical and wavelet (Haar) decompositions over LDP "
        "frequency oracles, with a streaming aggregation service"
    ),
    long_description=(Path(__file__).parent / "ARCHITECTURE.md").read_text(),
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro-cli=repro.cli:main"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Programming Language :: Python :: 3.13",
        "Topic :: Scientific/Engineering",
    ],
)
