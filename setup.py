"""Legacy setup shim.

The execution environment has no ``wheel`` package, so PEP 660
editable installs (``pip install -e .``) cannot build an editable
wheel.  This shim lets pip fall back to ``setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="sabres-repro",
    description="Reproduction of SABRes: atomic object reads for "
    "in-memory rack-scale computing (MICRO 2016)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    entry_points={
        "console_scripts": [
            "repro-harness=repro.harness.cli:main",
            "repro-campaign=repro.experiments.campaign_cli:main",
            "repro-serve=repro.serve.cli:main",
            "repro-load=repro.loadgen.cli:main",
        ]
    },
)
