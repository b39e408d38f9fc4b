"""Symbol attributes controlling evaluation (§2.1).

The evaluator consults these before evaluating arguments (``Hold*``),
flattening (``Flat``), canonically ordering (``Orderless``), and threading
over lists (``Listable``).
"""

from __future__ import annotations

HOLD_ALL = "HoldAll"
HOLD_FIRST = "HoldFirst"
HOLD_REST = "HoldRest"
HOLD_ALL_COMPLETE = "HoldAllComplete"
FLAT = "Flat"
ORDERLESS = "Orderless"
LISTABLE = "Listable"
ONE_IDENTITY = "OneIdentity"
PROTECTED = "Protected"
SEQUENCE_HOLD = "SequenceHold"
NUMERIC_FUNCTION = "NumericFunction"

ALL_ATTRIBUTES = frozenset({
    HOLD_ALL, HOLD_FIRST, HOLD_REST, HOLD_ALL_COMPLETE, FLAT, ORDERLESS,
    LISTABLE, ONE_IDENTITY, PROTECTED, SEQUENCE_HOLD, NUMERIC_FUNCTION,
})
