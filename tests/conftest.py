"""Settings for the whole test run.

A failing hypothesis draw prints its ``@reproduce_failure`` blob, so that it
can be replayed anywhere: ``.hypothesis/`` is not kept in the repository, and
without the blob a rare failure is saved only in the local example database
of the machine that found it.  Example counts and deadlines stay as each
test sets them.
"""

from hypothesis import settings

settings.register_profile("kgdelta", print_blob=True)
settings.load_profile("kgdelta")
