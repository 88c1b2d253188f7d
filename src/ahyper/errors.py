"""Error vocabulary shared by the library and the CLI.

Every failure that is part of the public contract carries a stable short
code.  Input errors map to CLI exit status 2, internal faults to status 1.
"""

from __future__ import annotations


class AhgError(Exception):
    """Base class; carries a stable code and a human readable detail."""

    exit_code = 1

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class InputError(AhgError):
    """The caller handed us something malformed or out of domain."""

    exit_code = 2


class InternalError(AhgError):
    """A contract the implementation relies on was violated at runtime."""

    exit_code = 1


# input error codes
NOT_FULL_DIM = "NOT_FULL_DIM"
NOT_HOMOGENEOUS = "NOT_HOMOGENEOUS"
NOT_SUBLATTICE = "NOT_SUBLATTICE"
CHI_NOT_IN_LATTICE = "CHI_NOT_IN_LATTICE"
NOT_MINIMAL = "NOT_MINIMAL"
NOT_NORMAL = "NOT_NORMAL"
NOT_CURVE = "NOT_CURVE"
NOT_ISOMORPHIC = "NOT_ISOMORPHIC"
PARSE = "PARSE"

# internal fault codes
WHOLE_CONE = "WHOLE_CONE"
RIGHT_FACTOR_MISSING = "RIGHT_FACTOR_MISSING"
NOT_IN_B_IDEAL = "NOT_IN_B_IDEAL"
WITNESS_FAILURE = "WITNESS_FAILURE"
INVARIANT_VIOLATED = "INVARIANT_VIOLATED"
# any other exception, caught at the CLI boundary
INTERNAL = "INTERNAL"
