"""The package's top-level names: the union of its layers' ``__all__`` lists."""

import ellbundle

PUBLIC = [
    "BundleObject", "ClosedForm", "ExprValidationError", "INFINITE", "Indecomposable",
    "LineBundleClass", "ModulusMismatchError", "ParseError", "ProductObject", "RING_ONE",
    "RING_ZERO", "RingElement", "SummandClosure", "TRIVIAL", "TannakianLabel",
    "TransportError", "UNIT", "ZERO", "atiyah", "clebsch_gordan", "closed_form_S",
    "end_dim_projective_check", "evaluate", "exact_rank", "hom_dim", "jordan_tensor",
    "krull_dim_class", "line_class", "parse", "parse_object", "phi_transport",
    "print_canonical", "product_tensor", "summand_closure", "tannakian_label", "tensor",
    "tensor_rank_indices",
]


def test_top_level_names():
    assert sorted(ellbundle.__all__) == PUBLIC
    assert all(hasattr(ellbundle, name) for name in PUBLIC)
