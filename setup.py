from setuptools import find_packages, setup

setup(
    name="kollaps-repro",
    version="0.5.0",
    description=("Reproduction of Kollaps: decentralized, scalable network "
                 "emulation (EuroSys '20)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # The core is dependency-free on purpose: every subsystem runs on the
    # standard library alone.  numpy only accelerates the fair-share
    # solver, which uses it whenever it is importable (see
    # docs/performance.md).
    install_requires=[],
    extras_require={
        "fast": ["numpy>=1.22"],
        "dev": ["pytest", "pytest-benchmark", "hypothesis", "numpy>=1.22"],
    },
)
