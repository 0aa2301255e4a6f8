"""Setuptools entry point.

All metadata lives here (no ``pyproject.toml``) so ``pip install -e .``
works in offline environments whose setuptools predates bundled wheel
support (PEP 660 editable installs need the ``wheel`` package; the
legacy develop path does not).
"""

from setuptools import find_packages, setup

setup(
    name="shbf-repro",
    version="1.1.0",
    description=(
        "Reproduction of 'A Shifting Bloom Filter Framework for Set "
        "Queries' (VLDB 2016) with a NumPy batch fast path"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # np.bitwise_count (the multiplicity kernel's bit length) needs 2.0.
    install_requires=["numpy>=2.0"],
)
