"""The record classes: positional fields, equality, hashing and immutability.

Nodes, types, tokens and analysis results are plain classes (`ast.Record`).
These tests pin what pattern matching, the caches and the comparisons in the
passes rely on."""

import pytest

from focml import basics, deps, driver, emit, errors, evaluator, generators
from focml import ast, hierarchy, lexer, resolve, typecheck
from focml.ast import (
    T_INT, Fact, Not, Pos, ProofLeaf, Qual, Scheme, SpeciesDecl, TArrow, TCon,
    TGen, TParam, TSelf, TTuple, TVar, Var, same,
)

MATCH_ARGS = {
    ast: {
        "Pos": "line col",
        "TCon": "name",
        "TSelf": "",
        "TCap": "name",
        "TParam": "name",
        "TCollCarrier": "name",
        "TArrow": "arg res",
        "TTuple": "items",
        "TVar": "uid",
        "TGen": "idx",
        "Scheme": "count body",
        "Expr": "",
        "IntLit": "value",
        "BoolLit": "value",
        "StrLit": "value",
        "Var": "name ref",
        "ConRef": "name args",
        "Qual": "coll name ref",
        "Call": "callee args",
        "BinOp": "op left right",
        "UnOp": "op operand",
        "If": "cond then orelse",
        "TupleExpr": "items",
        "Match": "scrutinee arms",
        "Quant": "kind vars ty body",
        "Connective": "op left right",
        "Not": "operand",
        "Eq": "left right",
        "Pattern": "",
        "PWild": "",
        "PVar": "name",
        "PCon": "name args",
        "PTuple": "items",
        "Fact": "kind names labels pos refs",
        "ProofLeaf": "facts admitted pos",
        "ProofStep": "label assumes hyps goal is_qed sub pos",
        "ProofSteps": "steps pos",
        "MethodDecl": "kind name ty params ret body statement proof rec pos",
        "SpeciesParam": "name kind interface carrier pos",
        "SpeciesArg": "name expr pos",
        "SpeciesExpr": "name args pos",
        "SpeciesDecl": "name params inherits representation rep_pos methods pos",
        "UnionTypeDecl": "name constructors pos",
        "CollectionDecl": "name implements pos",
        "CompilationUnit": "decls",
    },
    basics: {"Builtin": "name scheme logical type_args infix"},
    deps: {
        "MethodDeps": "decl defs closure universe carrier_keep min_env param_deps "
        "param_carrier entity_used",
        "SpeciesDeps": "order methods rec_groups",
    },
    driver: {
        "CompiledUnit": "unions species deps plans collections extractions decl_order "
        "constructors warnings files",
    },
    emit: {"RenderEnv": "target module prefix params self_ty param_ty"},
    errors: {"Diagnostic": "kind message pos file severity witness"},
    evaluator: {"VCon": "name args", "BuiltinFn": "name", "Scope": "vars quals"},
    generators: {
        "GenApp": "species method args comp_args",
        "Lift": "tag name is_set ty statement bind_type bind_gen",
        "MethodGeneratorPlan": "species method kind rec admitted lifts value_params ret "
        "body statement proof",
        "RecordTypePlan": "species abstractions fields",
        "LocalDef": "name gen",
        "CollectionGeneratorPlan": "species outer locals record_args",
        "SpeciesPlan": "name generators record create",
        "CollectionExtractionPlan": "name species create_args comp_args carrier "
        "record_params methods",
    },
    hierarchy: {
        "MethodInfo": "name kind decl_site first_def origin proof_origin ty extra_sigs "
        "params ret body statement proof rec superseded pos scheme param_types ret_type "
        "carrier_decl carrier_def scanned_in carried valid_proof",
        "RevertedProof": "method proof_origin def_name def_origin pos",
        "NFSpecies": "name params lineage rep rep_origin rep_resolved methods order "
        "reverted iface_args ancestor_args pos",
        "CollectionModel": "name nf args iface_schemes carrier pos",
    },
    lexer: {"Token": "kind value pos bullet"},
    resolve: {"Names": "entities methods params collections"},
    typecheck: {
        "SpeciesTypeEnv": "ctx rep methods entity_params param_ifaces collections "
        "constructors",
        "LetTyping": "scheme param_types ret_type used_rep touched_self",
        "StatementTyping": "touched_self",
        "ProofTyping": "used_rep touched_self",
    },
}

FROZEN = {"Pos", "TCon", "TSelf", "TCap", "TParam", "TCollCarrier", "TArrow", "TTuple",
          "TVar", "TGen", "Scheme", "Builtin", "VCon", "BuiltinFn", "Token", "Names"}


def test_every_record_keeps_its_positional_fields():
    records = {
        name
        for module in MATCH_ARGS
        for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, ast.Record)
        and cls.__module__ == module.__name__ and cls not in (ast.Record, ast.Frozen, ast.Node)
    }
    assert records == {name for table in MATCH_ARGS.values() for name in table}
    for module, table in MATCH_ARGS.items():
        for name, fields in table.items():
            cls = getattr(module, name)
            assert cls.__match_args__ == tuple(fields.split()), name
            assert (cls.__hash__ is not None) == (name in FROZEN), name


def test_equality_ignores_positions_and_resolution():
    assert Var("x", "local", pos=Pos(1, 2)) == Var("x", None, pos=Pos(3, 4))
    assert Qual("P", "m", "param", pos=Pos(1, 1)) == Qual("P", "m", "collection")
    assert Var("x") != Var("y")
    assert Var("x") != Qual("", "x")  # another class is never equal
    facts = [Fact("property", ["P!m"], [], Pos(1, 1), ["param"])]
    assert ProofLeaf(facts, False, Pos(1, 1)) == ProofLeaf(
        [Fact("property", ["P!m"], [], Pos(2, 2), [None])], False, Pos(5, 5)
    )
    assert ProofLeaf(facts) != ProofLeaf(facts, admitted=True)
    assert SpeciesDecl("S", rep_pos=Pos(1, 1), pos=Pos(1, 1)) == SpeciesDecl("S")
    # analysis records compare every field, positions included
    a = hierarchy.RevertedProof("m", "A", "f", "B", Pos(1, 1))
    assert a == hierarchy.RevertedProof("m", "A", "f", "B", Pos(1, 1))
    assert a != hierarchy.RevertedProof("m", "A", "f", "B", Pos(2, 1))


def test_types_hash_by_value_and_reject_assignment():
    t = TArrow(TParam("P"), TTuple((T_INT, TSelf())))
    assert t == TArrow(TParam("P"), TTuple((TCon("int"), TSelf())))
    assert hash(t) == hash(TArrow(TParam("P"), TTuple((TCon("int"), TSelf()))))
    # the hash is the hash of the compared fields as a tuple, whatever their number
    assert hash(TVar(7)) == hash((7,))
    assert hash(TSelf()) == hash(())
    assert hash(Scheme(1, TGen(0))) == hash((1, TGen(0)))
    assert len({TVar(1), TVar(1), TGen(1)}) == 2
    for value, field in ((T_INT, "name"), (Pos(1, 2), "line"), (t, "arg")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    token = lexer.Token("int", "1", Pos(1, 1))
    with pytest.raises(AttributeError):
        token.value = "2"


def test_nodes_and_analysis_records_are_unhashable():
    for value in (Var("x"), Not(Var("x")), Fact(), SpeciesDecl("S"), deps.SpeciesDeps()):
        with pytest.raises(TypeError):
            hash(value)


def test_replace_copies_shallowly():
    t = lexer.Token("int", "1", Pos(1, 1))
    moved = t.replace(pos=Pos(2, 1))
    assert (moved.kind, moved.value, moved.pos, t.pos) == ("int", "1", Pos(2, 1), Pos(1, 1))
    with pytest.raises(AttributeError):
        moved.value = "2"  # still frozen
    sd = deps.SpeciesDeps(order=["a"])
    copied = sd.replace()
    assert copied == sd and copied is not sd and copied.order is sd.order


def test_match_and_repr_read_the_fields():
    match Qual("P", "m", "param"):
        case Qual(coll, name, ref):
            assert (coll, name, ref) == ("P", "m", "param")
    assert repr(Var("x")) == "Var(pos=Pos(line=0, col=0), name='x', ref=None)"
    assert repr(TArrow(T_INT, TSelf())) == "TArrow(arg=TCon(name='int'), res=TSelf())"


def test_same_compares_deep_nodes_field_by_field():
    # Past the recursion limit `==` fails and `same` walks its own stack,
    # comparing exactly the fields `==` compares.
    def nots(n, ref, line):
        e = Var("x", ref, pos=Pos(line, 1))
        for _ in range(n):
            e = Not(e, pos=Pos(line, 1))
        return e

    assert same(nots(5000, "local", 1), nots(5000, None, 2))
    assert not same(nots(5000, None, 1), nots(5000, None, 1).operand)
