# lintpath: src/repro/core/fixture_good.py
"""Helpers documented against the ``batch`` backend (registered and live)."""


def dispatch(engine):
    """Score pair by pair like the 'scalar' backend, or with
    backend="batch" for whole blocks; prose mentioning a custom
    backend without quoting a name is also fine."""
    return engine
