"""Exception types shared across the package."""


class DegenerateClusterError(RuntimeError):
    """A cluster became numerically unusable for the closed-form updates.

    Raised when a cluster's effective mass (column sum of the powered
    membership matrix) vanishes, or when its weighted data image is zero
    so the re-weighting center's direction is a 0/0. During a solve the
    solvers catch this and report a degenerate termination instead of
    continuing with NaNs; a start with a zero-mass cluster is a ValueError.
    """
