"""Shared exception types.

The CLI maps these onto exit codes: validation problems (bad inputs,
malformed scenario documents) exit 2, numeric failures (blow-up, solver or
ladder breakdown) exit 3, and failed bound checks exit 1 without raising.
"""


class ValidationError(ValueError):
    """Invalid user input: dimensions, signs, schema violations."""


class NumericError(RuntimeError):
    """Numerical procedure failed: blow-up, non-convergence, tolerance miss."""


class BlowUpError(NumericError):
    """State or cumulant exceeded its ceiling (MASS_CEILING or FLOW_CEILING)."""


class GreyConditionError(NumericError):
    """V-bar requested for a mechanism whose dominating tail integral diverges."""
