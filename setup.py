"""Legacy setup shim.

The reproduction environment is offline and lacks the ``wheel`` package,
so PEP 660 editable installs are unavailable; this shim lets
``pip install -e .`` fall back to ``setup.py develop``.  All project
metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={"console_scripts": ["repro-paper=repro.eval.cli:main"]},
)
