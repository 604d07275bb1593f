"""Session setup shared by every test module.

When a property test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to suggest an explicit example.  That module
imports libcst, and some libcst releases import mypy_extensions, which
emits a DeprecationWarning.  Under filterwarnings = ["error"] the
warning is raised inside the plugin's report hook and pytest stops the
whole session with INTERNALERROR, so the remaining tests never run.
Importing the module once here, with only that category ignored, keeps
a failing property test a plain FAILED; the error filter still applies
to all test code.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
