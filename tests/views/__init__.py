"""Tests of object views: the spec language, VIG, coherence and access."""

from __future__ import annotations

import linecache


def exec_with_source(source: str, module: str) -> dict:
    """Run ``source`` as a module named ``module`` whose functions
    ``inspect.getsource`` can read, as VIG needs for every method it
    copies; returns the module namespace."""
    filename = f"<generated {module}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {"__name__": module}
    exec(compile(source, filename, "exec"), namespace)
    return namespace
