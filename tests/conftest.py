import pytest


@pytest.fixture(autouse=True)
def kernel_cache(tmp_path, monkeypatch):
    """Each test's expression-kernel cache: a fresh directory under its
    tmp_path, so that no test reads or writes the user's cache.  Child
    processes inherit it through the environment."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "frachp"
