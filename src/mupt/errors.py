"""Exception types shared across the package.

Anything user-facing (CLI) maps ConfigError, CheckpointError and WorkerDied
to exit code 1 and CheckFailure to exit code 2; everything else is a plain bug and escapes
as-is.
"""


class ConfigError(ValueError):
    """Bad user input: unknown config key, invalid value, malformed file."""


class CheckFailure(AssertionError):
    """A numerical or statistical check ran fine but its assertion failed."""


class CheckpointError(ValueError):
    """Unreadable, truncated, corrupt or version-mismatched checkpoint container."""


class WorkerDied(RuntimeError):
    """A pool worker ended before its jobs did: killed from outside, as by the
    OOM killer, or exited without returning a result."""
