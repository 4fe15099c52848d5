"""Suite-wide hypothesis settings.

Property tests build panels and run bootstraps whose time varies too much for
a per-example deadline, and a failing property should print the blob that
reproduces it (``@reproduce_failure``).  Each test's ``@settings`` sets only
its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("prevest", deadline=None, print_blob=True)
settings.load_profile("prevest")
