"""granite: granularity-aware change prediction over Git repositories.

Mines class- and method-level change histories from a local Git repository,
builds labeled metric datasets per release pair, trains a random forest,
and evaluates predictions directly, via class-to-method projection, and with
effort-aware top-k change ratios.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # perfbench/selftest.py reads granite.parse_source; resolving it on first use keeps `import granite` bare
    if name == "parse_source":
        from granite.javaparse import parse_source
        return parse_source
    raise AttributeError(f"module 'granite' has no attribute {name!r}")
