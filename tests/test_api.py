"""The package's top-level names: the union of its layers' ``__all__`` lists."""

import pytest

import ellbundle

PUBLIC = [
    "BundleObject", "ClosedForm", "ExprValidationError", "INFINITE", "Indecomposable",
    "LineBundleClass", "ModulusMismatchError", "ParseError", "ProductObject", "RING_ONE",
    "RING_ZERO", "RingElement", "SummandClosure", "TRIVIAL", "TannakianLabel",
    "TransportError", "UNIT", "ZERO", "atiyah", "closed_form_S", "evaluate", "exact_rank",
    "hom_dim", "jordan_tensor", "krull_dim_class", "line_class", "parse", "parse_object",
    "phi_transport", "print_canonical", "product_tensor", "summand_closure",
    "tannakian_label", "tensor_rank_indices",
]


def test_top_level_names():
    assert sorted(ellbundle.__all__) == PUBLIC
    assert all(hasattr(ellbundle, name) for name in PUBLIC)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ellbundle import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_dir_lists_the_public_names_and_layers():
    assert set(PUBLIC) | {"picard", "bundles", "expr", "kring", "jordan"} <= set(dir(ellbundle))


def test_names_resolve_to_the_layers_bindings_and_stay_out_of_the_globals():
    assert ellbundle.jordan_tensor is ellbundle.jordan.jordan_tensor
    assert ellbundle.BundleObject is ellbundle.bundles.BundleObject
    # bench/tracer.py wraps whatever it finds in vars() of the package.
    assert not set(PUBLIC) & set(vars(ellbundle))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ellbundle.no_such_name


def test_version():
    assert ellbundle.__version__ == "0.1.0"
