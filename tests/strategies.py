"""Hypothesis strategies shared by the test modules."""
import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from diraclab import charges


@st.composite
def small_molecules(draw, sizes=(2, 3)):
    """2-3 atoms (or as many as `sizes` allows) of strength 0.1-0.3, at
    least 0.3 apart, within 1.5."""
    coord = st.floats(min_value=-1.5, max_value=1.5)
    atoms = draw(st.lists(st.tuples(st.tuples(coord, coord, coord),
                                    st.floats(min_value=0.1, max_value=0.3)),
                          min_size=sizes[0], max_size=sizes[-1]))
    xyz = np.array([pos for pos, _ in atoms])
    assume(min(np.linalg.norm(a - b) for i, a in enumerate(xyz)
               for b in xyz[i + 1:]) >= 0.3)
    return charges.atoms([pos for pos, _ in atoms], [t for _, t in atoms])
