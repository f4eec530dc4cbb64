"""The package's typed errors, under one base.

Each class also keeps the builtin base it has always had (ValueError or
KeyError), so code that catches the builtin keeps working.  The command
line maps DecolabError to exit status 2.
"""


class DecolabError(Exception):
    """Base of the package's typed errors."""


class ConfigError(DecolabError, ValueError):
    """Experiment configuration outside its supported envelope."""


class DensityError(DecolabError, ValueError):
    """Density precondition for a multiplicity experiment failed."""


class ScenarioError(DecolabError, ValueError):
    """A scenario mixes regimes or double-counts a mechanism."""


class DegenerateScaleError(DecolabError, ValueError):
    """Cap radius at or above sphere scale; no lattice exists."""


class DegenerateGeometryError(DecolabError, ValueError):
    """Raised when a configuration carries no usable transversality."""


class UnknownExperimentError(DecolabError, KeyError):
    """Requested experiment name is not in the registry."""
