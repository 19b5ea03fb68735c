"""Error types and desk-scale limits shared across the package."""

import os
from contextlib import contextmanager

# Default ceilings for truncation order and species count.  Everything in this
# package is meant for exact desk-scale work; the ceilings keep accidental
# combinatorial explosions from eating a machine.  Raise them explicitly via
# the VIRIALKIT_MAX_ORDER environment variable or a per-call allow_large flag.
DESK_MAX_ORDER = 6
DESK_MAX_SPECIES = 12


class VirialKitError(Exception):
    """Base class for package errors."""


class StructureError(VirialKitError):
    """Inconsistent shapes, mismatched spaces, or malformed input objects."""


class DomainError(VirialKitError):
    """Argument outside the mathematical domain of an operation."""


class CapabilityError(VirialKitError):
    """Request exceeds what this implementation supports at desk scale."""


class CertificateError(VirialKitError):
    """A convergence certificate failed; the offending certificate rides along."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@contextmanager
def required_fields(what):
    """Read the fields of a ``what`` document: a missing one (a KeyError)
    is a StructureError that names it, ``malformed what: missing 'key'``."""
    try:
        yield
    except KeyError as exc:
        raise StructureError(f"malformed {what}: missing {exc}") from exc


def max_order():
    """Current truncation-order ceiling (env override included)."""
    raw = os.environ.get("VIRIALKIT_MAX_ORDER")
    if raw is None:
        return DESK_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"VIRIALKIT_MAX_ORDER must be an integer, got {raw!r}") from exc
    if value < 1:
        raise DomainError("VIRIALKIT_MAX_ORDER must be >= 1")
    return value


def check_scale(order=None, species=None, allow_large=False):
    """Enforce desk-scale ceilings unless explicitly overridden."""
    if allow_large:
        return
    if order is not None and order > max_order():
        raise CapabilityError(
            f"truncation order {order} exceeds ceiling {max_order()}; "
            "set allow_large=True or VIRIALKIT_MAX_ORDER to override"
        )
    if species is not None and species > DESK_MAX_SPECIES:
        raise CapabilityError(
            f"{species} species exceeds ceiling {DESK_MAX_SPECIES}; "
            "set allow_large=True to override"
        )
