"""Package definition for the DATE 2023 chiplet-photonics reproduction.

numpy is a hard dependency: the arrival processes, the analytic and
fluid-fidelity models, the resilience layer and the hazard engine
import it at module top.  The extras add the test and benchmark
tooling.
"""

from setuptools import find_packages, setup

setup(
    name="repro-chiplet-siph",
    version="0.2.0",
    description=(
        "Reproduction of 'Machine Learning Accelerators in 2.5D Chiplet "
        "Platforms with Silicon Photonics' (DATE 2023): DES-based "
        "simulator, experiment drivers, and paper artefacts"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "bench": ["pytest", "pytest-benchmark"],
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Intended Audience :: Science/Research",
    ],
)
