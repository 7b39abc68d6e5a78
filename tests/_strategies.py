"""Shared hypothesis strategies for bundle values."""

from fractions import Fraction

from hypothesis import strategies as st

from ellbundle import BundleObject, Indecomposable, RingElement, line_class

GENERATORS = ("g", "h")


def torsion_coords(max_order: int = 6):
    return st.builds(
        lambda num, den: Fraction(num, den) % 1,
        st.integers(0, 2 * 6),
        st.integers(1, max_order),
    )


def free_parts(max_exp: int = 2):
    return st.dictionaries(
        st.sampled_from(GENERATORS),
        st.integers(-max_exp, max_exp).filter(bool),
        max_size=2,
    )


def line_classes(max_order: int = 6, with_free: bool = True):
    free = free_parts() if with_free else st.just({})
    return st.builds(line_class, torsion_coords(max_order), torsion_coords(max_order), free)


def indecomposables(max_rank: int = 4, max_order: int = 6, with_free: bool = True):
    return st.builds(
        Indecomposable, st.integers(1, max_rank), line_classes(max_order, with_free)
    )


def bundle_objects(max_rank: int = 4, max_summands: int = 3, with_free: bool = True):
    return st.lists(
        st.tuples(indecomposables(max_rank, with_free=with_free), st.integers(1, 2)),
        max_size=max_summands,
    ).map(BundleObject.of)


def unipotent_objects(max_rank: int = 4):
    return st.lists(
        st.tuples(
            st.integers(1, max_rank).map(Indecomposable), st.integers(1, 2)
        ),
        max_size=3,
    ).map(BundleObject.of)


def finite_objects(max_order: int = 4):
    return st.lists(
        st.tuples(
            st.builds(
                Indecomposable,
                st.just(1),
                line_classes(max_order, with_free=False),
            ),
            st.integers(1, 2),
        ),
        max_size=3,
    ).map(BundleObject.of)


def ring_elements(max_rank: int = 3):
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    return st.lists(
        st.tuples(indecomposables(max_rank, max_order=4), coeffs), max_size=2
    ).map(RingElement.of)
