"""Exception types shared across the package.

Every error carries a stable ``code`` string ("<area>/<Name>") so CLI
reports can identify failures without parsing messages, plus an optional
``context`` dict holding a witness (offending indices, residuals, ...).
"""

from __future__ import annotations

import math


class NCHodgeError(Exception):
    """Base class for all package errors."""

    code = "nchodge/Error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def report_entry(self) -> dict:
        # JSON has no inf or nan: a non-finite float is written as its repr
        ctx = {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in self.context.items()}
        return {"code": self.code, "message": str(self), "context": ctx}


# -- algebra construction --------------------------------------------------

class ShapeMismatch(NCHodgeError):
    code = "algebra-core/ShapeMismatch"


class DimMismatch(NCHodgeError):
    code = "algebra-core/DimMismatch"


class AssociativityViolation(NCHodgeError):
    code = "algebra-core/AssociativityViolation"


class UnitViolation(NCHodgeError):
    code = "algebra-core/UnitViolation"


class NonFiniteEntry(NCHodgeError):
    code = "algebra-core/NonFiniteEntry"


# -- form windows ----------------------------------------------------------

class WindowTooLarge(NCHodgeError):
    code = "nc-forms/WindowTooLarge"


class DegreeOutOfWindow(NCHodgeError):
    code = "nc-forms/DegreeOutOfWindow"


# -- spectral decomposition ------------------------------------------------

class PolynomialRelationViolated(NCHodgeError):
    code = "spectral/PolynomialRelationViolated"


class NumericalRankAmbiguous(NCHodgeError):
    code = "spectral/NumericalRankAmbiguous"


class SingularOnComplement(NCHodgeError):
    code = "spectral/SingularOnComplement"


class NonUnitRootEigenvalue(NCHodgeError):
    code = "spectral/NonUnitRootEigenvalue"


# -- classical cochain complexes -------------------------------------------

class NotAComplex(NCHodgeError):
    code = "hodge-classical/NotAComplex"


class BadGram(NCHodgeError):
    code = "hodge-classical/BadGram"


class OutOfFloatRange(NCHodgeError):
    code = "hodge-classical/OutOfFloatRange"


# -- foliation models -------------------------------------------------------

class BadWeights(NCHodgeError):
    code = "tangential/BadWeights"


class LeafTooSmall(NCHodgeError):
    code = "tangential/LeafTooSmall"




class GridTooCoarse(NCHodgeError):
    code = "tangential/GridTooCoarse"


class GridTooLarge(NCHodgeError):
    code = "tangential/GridTooLarge"


class NotIntegrable(NCHodgeError):
    code = "tangential/NotIntegrable"


class VanishingOmega(NCHodgeError):
    code = "tangential/VanishingOmega"


# -- command line ------------------------------------------------------------

class InputError(NCHodgeError, ValueError):
    # also a ValueError, so callers that catch ValueError around a name
    # lookup (see ``lookup``) keep working
    code = "cli/InputError"


class LeafTooLarge(InputError):
    # an InputError too, as the allocation failure it forestalls used to be
    code = "tangential/LeafTooLarge"


def lookup(table, name, what, **context):
    """``table[name]``.  An unknown or unhashable ``name`` is an InputError
    whose context holds ``context``, the ``name`` and the sorted
    ``available`` keys."""
    try:
        return table[name]
    except (KeyError, TypeError):       # TypeError: an unhashable name
        available = sorted(table)
        raise InputError(f"unknown {what} {name!r} (choose from {available})",
                         **context, name=name, available=available) from None
