from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local modules under its
    # home directory, database or not.  Keep that inside pytest's own cache
    # rather than in a .hypothesis/ directory at the root of the tree.
    if config.pluginmanager.has_plugin("cacheprovider"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
