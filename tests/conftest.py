import warnings

from hypothesis.configuration import set_hypothesis_home_dir

# On a failing property, hypothesis's pytest plugin imports this module to
# suggest a patch.  Where libcst is installed, that import raises a
# DeprecationWarning, which `-W error` turns into an INTERNALERROR that hides
# the falsifying example.  Importing it once here, with only that warning
# ignored, keeps `-W error` in force for every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local modules under its
    # home directory, database or not.  Keep that inside pytest's own cache
    # rather than in a .hypothesis/ directory at the root of the tree.
    if config.pluginmanager.has_plugin("cacheprovider"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
