"""The fixed `basics` standard library: builtin types, operators and properties.

Everything the language can use without declaring it lives in this table; the
compiler never looks anything else up implicitly.
"""

from __future__ import annotations

from .ast import (
    Frozen, Scheme, TGen, TArrow, TTuple, T_INT, T_BOOL, T_STRING, arrow, flatten_arrow,
)


class Builtin(Frozen):
    def __init__(
        self,
        name: str,
        scheme: Scheme,
        logical: str,  # head emitted in the logical target
        type_args: int = 0,  # number of inferred `_` type arguments in the logical target
        infix: bool = False,  # rendered as an infix operator in both targets
    ):
        d = self.__dict__
        d["name"] = name
        d["scheme"] = scheme
        d["logical"] = logical
        d["type_args"] = type_args
        d["infix"] = infix
        d["arity"] = len(flatten_arrow(scheme.body)[0])  # arguments taken before it computes


_A, _B = TGen(0), TGen(1)

BUILTIN_FUNCTIONS: dict[str, Builtin] = {
    "+": Builtin("+", Scheme(0, arrow(T_INT, T_INT, T_INT)), "+", infix=True),
    "-": Builtin("-", Scheme(0, arrow(T_INT, T_INT, T_INT)), "-", infix=True),
    "<0x": Builtin("<0x", Scheme(0, arrow(T_INT, T_INT, T_BOOL)), "basics._lt_0x"),
    "=0x": Builtin("=0x", Scheme(0, arrow(T_INT, T_INT, T_BOOL)), "basics._equal_0x"),
    "&&": Builtin("&&", Scheme(0, arrow(T_BOOL, T_BOOL, T_BOOL)), "&&", infix=True),
    "~~": Builtin("~~", Scheme(0, arrow(T_BOOL, T_BOOL)), "basics.not"),
    "=": Builtin("=", Scheme(1, arrow(_A, _A, T_BOOL)), "basics._equal_", type_args=1),
    "fst": Builtin("fst", Scheme(2, TArrow(TTuple((_A, _B)), _A)), "basics.fst", type_args=2),
    "snd": Builtin("snd", Scheme(2, TArrow(TTuple((_A, _B)), _B)), "basics.snd", type_args=2),
}

# Properties provided by the standard library; usable as `by property` facts only.
BUILTIN_PROPERTIES = frozenset({"int_ltNotGt"})

BUILTIN_TYPES = {"int": T_INT, "bool": T_BOOL, "string": T_STRING}

# Logical-target names of the builtin base types.
LOGICAL_TYPE_NAMES = {"int": "basics.int__t", "bool": "basics.bool__t", "string": "basics.string__t"}
