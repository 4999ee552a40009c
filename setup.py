"""Build script: compiles the optional C kernels into a shared library.

``kernels.c`` uses no Python API; ``webcred._kernels`` loads the library
through ctypes when it sits next to the package and otherwise falls back
to pure numpy, so a missing C compiler only costs speed.  Build in place
with ``python setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "webcred._kernels.kernels",
            ["src/webcred/_kernels/kernels.c"],
            # fp-contract off: the fallback kernels promise bit-identical
            # tree splits, so FMA contraction must not change rounding.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
