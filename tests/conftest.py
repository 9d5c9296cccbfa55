"""Shared test setup: hypothesis's patch writer, loaded once with its import warnings silenced.

A failing ``@given`` test makes hypothesis import ``hypothesis.extra._patching``
to print the falsifying example.  That import raises a ``DeprecationWarning``
(from ``mypy_extensions``), which ``filterwarnings = ["error"]`` turns into an
``INTERNALERROR`` that hides the example.  Loaded here first, it is cached.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
