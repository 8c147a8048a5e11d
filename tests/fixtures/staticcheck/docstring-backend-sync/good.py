# lintpath: src/repro/core/fixture_good.py
"""Helpers documented against the ``batch`` backend (registered and live)."""


def dispatch(engine):
    """Shard the matrix like the 'cluster' backend, falling back to
    backend="batch" when no worker is reachable; prose mentioning a custom
    backend without quoting a name is also fine."""
    return engine
