"""Build script: compiles the optional Cython kernel extension.

The package is fully functional without the extension (a pure-Python
backend is selected at import time).  Without Cython the extension is
skipped and the install is pure; with Cython, a failed C compile fails the
build.  Set QUANDLEKIT_NO_EXT=1 to skip the extension build entirely.
"""
import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("QUANDLEKIT_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            [
                Extension(
                    "quandlekit._kernels._speedups",
                    sources=["src/quandlekit/_kernels/_speedups.pyx"],
                )
            ],
            compiler_directives={"language_level": "3"},
        )
    except ImportError:
        ext_modules = []

setup(ext_modules=ext_modules)
