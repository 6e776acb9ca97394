"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from cscbench.dictionary import SAME, VALID, MSDDictionary, random_dictionary


@st.composite
def conv_dictionaries(draw):
    """1-D/2-D grids, 1-3 channels, width 1-4, kernel 1-3, dilation 1-3,
    both paddings."""
    rank = draw(st.integers(1, 2))
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    dilation = draw(st.integers(1, 3))
    padding = draw(st.sampled_from([VALID, SAME]))
    spatial = []
    for k in kernel:
        extent = dilation * (k - 1) + 1
        low = extent if padding == VALID else 1
        spatial.append(draw(st.integers(low, max(low, 12 if rank == 1 else 6))))
    return random_dictionary(
        tuple(spatial) + (draw(st.integers(1, 3)),),
        kernel,
        draw(st.integers(1, 4)),
        dilation=dilation,
        padding=padding,
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@st.composite
def dense_dictionaries(draw):
    """[I | D] over same-padded 1-D/2-D banks: 1-17 channels, width 1-4,
    kernel 2-4, dilation 1-3, so that some banks have no tap of offset 0."""
    rank = draw(st.integers(1, 2))
    spatial = tuple(draw(st.integers(1, 9 if rank == 1 else 5)) for _ in range(rank))
    return MSDDictionary(random_dictionary(
        spatial + (draw(st.integers(1, 17)),),
        tuple(draw(st.integers(2, 4)) for _ in range(rank)),
        draw(st.integers(1, 4)),
        dilation=draw(st.integers(1, 3)),
        padding=SAME,
        seed=draw(st.integers(0, 2**31 - 1)),
    ))
