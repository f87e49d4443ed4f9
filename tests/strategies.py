"""Hypothesis strategies for graph documents and specs.

They draw from the acceptance corpus's two generators: one seeded
polynomial family (up to 4 vertices, rank up to 4) or one single-vertex
monoid (loop counts 1..9, rank up to 5, any name or none).  Every spec
they give is valid.
"""

from hypothesis import strategies as st

from evansk import GraphDocument, monoid_spec
from evansk.corpus import random_polynomial_documents

polynomial_documents = st.integers(0, 2**32).map(
    lambda seed: random_polynomial_documents(1, seed)[0]
)
monoid_documents = st.builds(
    GraphDocument,
    spec=st.lists(st.integers(1, 9), min_size=1, max_size=5).map(monoid_spec),
    name=st.none() | st.text(max_size=12),
)
documents = polynomial_documents | monoid_documents
specs = documents.map(lambda doc: doc.spec)
wide_monoid_specs = st.lists(st.integers(1, 12), min_size=1, max_size=6).map(monoid_spec)
