import hashlib
import tracemalloc

import numpy as np

from spotlighter.rng import Stream


def test_identical_seeds_identical_streams():
    a = Stream(42).normals(100)
    b = Stream(42).normals(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Stream(1).normals(50), Stream(2).normals(50))


def test_children_are_independent_of_draw_order():
    parent = Stream(7)
    c3 = parent.child(3)
    parent.uniforms(1000)  # consuming the parent must not move children
    c3_again = Stream(7).child(3)
    assert np.array_equal(c3.normals(20), c3_again.normals(20))


def test_child_tags_distinct():
    s = Stream(9)
    assert not np.array_equal(s.child(0).uniforms(32), s.child(1).uniforms(32))


def test_uniforms_in_unit_interval():
    u = Stream(5).uniforms(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = Stream(13).normals(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_normals_shape():
    assert Stream(1).normals(3, 4, 5).shape == (3, 4, 5)


def test_sequential_draws_continue_the_stream():
    s = Stream(21)
    first = s.uniforms(10)
    second = s.uniforms(10)
    combined = Stream(21).uniforms(20)
    assert np.array_equal(np.concatenate([first, second]), combined)


def test_integers_in_range():
    v = Stream(3).integers(5000, 7)
    assert v.min() >= 0 and v.max() < 7
    assert len(np.unique(v)) == 7


def test_permutation_is_permutation():
    p = Stream(4).permutation(100)
    assert np.array_equal(np.sort(p), np.arange(100))


# SHA-256 of Stream(1).normals(*shape) bytes, recorded before the in-place
# Box-Muller rewrite: odd and even counts and the scalar draw
_PINNED_NORMALS = {
    (3, 5): "f36d8d3e328f2de4e7a227c132ffa7fdb212e4c59b05ed4c5104e367bb8c3a93",
    (7,): "956e6c408396cf5d4c967d6ae8bfdeb123e917762c7a2b6103e45403e76410f6",
    (6, 4): "069c810095c8ec92a4caffcfd0f9983fb339e38f120ebe77ea2282d3454eedc0",
    (): "9a02f28b34c6a09f95b7c6f1212b3d29d8bc4eb19b75592d9f7aec7f9e43b4c6",
}


def test_normals_pinned_bytes():
    for shape, digest in _PINNED_NORMALS.items():
        z = Stream(1).normals(*shape)
        assert np.shape(z) == shape
        assert hashlib.sha256(np.asarray(z, dtype=np.float64).tobytes()).hexdigest() == digest


def test_normals_peak_memory_bounded():
    tracemalloc.start()
    try:
        z = Stream(1).normals(200, 28, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * z.nbytes
