from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from builders import random_minimal_graph, random_negative_definite_graph


@pytest.fixture(scope="session")
def negdef_corpus():
    """200 seeded random negative-definite trees with <= 12 vertices."""
    rng = random.Random(20260823)
    return [random_negative_definite_graph(rng, max_vertices=12) for _ in range(200)]


@pytest.fixture(scope="session")
def small_negdef_corpus():
    """100 seeded random negative-definite trees with <= 6 vertices."""
    rng = random.Random(4711)
    return [random_negative_definite_graph(rng, max_vertices=6) for _ in range(100)]


@pytest.fixture(scope="session")
def minimal_corpus():
    """50 seeded random minimal graphs with <= 12 vertices."""
    rng = random.Random(97)
    return [random_minimal_graph(rng, max_vertices=12) for _ in range(50)]
