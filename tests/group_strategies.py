"""Hypothesis strategies for random permutation groups."""
from hypothesis import assume, strategies as st

from killform.errors import CapExceeded
from killform.groups import generate_group
from killform.perms import Perm


@st.composite
def permutation_groups_up_to_degree_8(draw):
    """The group generated by 1-3 random permutations of degree 2-8, at most
    3000 elements."""
    degree = draw(st.integers(2, 8))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    try:
        return generate_group([Perm(g) for g in gens], degree=degree, cap=3000)
    except CapExceeded:
        assume(False)
