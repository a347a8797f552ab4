import numpy as np
import pytest

from spotlighter import features
from spotlighter.errors import BadMagic, HeaderMismatch, InvalidSpec, TruncatedFile
from spotlighter.features import (
    FeatureSet,
    SynthSpec,
    generate_base_novel,
    generate_episode,
    read_features,
    write_features,
)
from spotlighter.numerics import cosine_matrix


def small_spec(**kw):
    base = dict(n_classes=4, n_tok=10, d=16, signal_tokens=3, noise_sigma=0.3,
                distractor_pool=5, seed=99)
    base.update(kw)
    return SynthSpec(**base)


# --- generation ---------------------------------------------------------------

def test_same_seed_bit_identical():
    a_train, a_test = generate_episode(small_spec(), 2, 2)
    b_train, b_test = generate_episode(small_spec(), 2, 2)
    assert a_train.content_bytes() == b_train.content_bytes()
    assert a_test.content_bytes() == b_test.content_bytes()


def test_different_seed_differs():
    a, _ = generate_episode(small_spec(), 2, 2)
    b, _ = generate_episode(small_spec(seed=100), 2, 2)
    assert a.content_bytes() != b.content_bytes()


def test_zero_noise_tokens_align_with_text():
    spec = small_spec(noise_sigma=0.0, signal_tokens=10)  # every token is signal
    train, _ = generate_episode(spec, 2, 1)
    for i in range(train.n_items):
        c = int(train.labels[i])
        sims = cosine_matrix(train.tokens[i].astype(float),
                             train.text_embeddings[c : c + 1].astype(float))
        assert np.abs(sims - 1.0).max() < 1e-6


def test_zero_noise_signal_equals_text_bits():
    spec = small_spec(noise_sigma=0.0)
    train, _ = generate_episode(spec, 1, 1)
    for i in range(train.n_items):
        c = int(train.labels[i])
        for t in range(spec.signal_tokens):
            assert np.array_equal(train.tokens[i, t], train.text_embeddings[c])


def test_signal_tokens_more_aligned_than_distractors():
    spec = SynthSpec(n_classes=10, n_tok=32, d=64, signal_tokens=4,
                     noise_sigma=0.3, distractor_pool=16, seed=7)
    train, _ = generate_episode(spec, 4, 1)
    sig, dis = [], []
    for i in range(train.n_items):
        c = int(train.labels[i])
        sims = cosine_matrix(train.tokens[i].astype(float),
                             train.text_embeddings[c : c + 1].astype(float))[:, 0]
        sig.extend(sims[: spec.signal_tokens])
        dis.extend(sims[spec.signal_tokens :])
    assert np.mean(sig) > np.mean(dis)


def test_items_have_unit_rows():
    train, _ = generate_episode(small_spec(), 2, 1)
    norms = np.linalg.norm(train.tokens.astype(float), axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-5


def test_base_novel_split_structure():
    base_train, base_test, novel_test = generate_base_novel(small_spec(), 2, 3)
    assert base_train.split == "base" and novel_test.split == "novel"
    assert base_train.n_items == 4 * 2
    assert base_test.n_items == 4 * 3
    assert novel_test.n_items == 4 * 3
    # novel classes are genuinely different classes
    assert not np.array_equal(base_train.text_embeddings, novel_test.text_embeddings)
    # base splits share their class set
    assert np.array_equal(base_train.text_embeddings, base_test.text_embeddings)


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpec):
        generate_episode(small_spec(noise_sigma=-0.1), 1, 1)
    with pytest.raises(InvalidSpec):
        generate_episode(small_spec(signal_tokens=11), 1, 1)
    with pytest.raises(InvalidSpec):
        generate_episode(small_spec(), 0, 1)


def test_feature_arrays_immutable():
    train, _ = generate_episode(small_spec(), 1, 1)
    with pytest.raises(ValueError):
        train.tokens[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        train.text_embeddings[0, 0] = 5.0


def test_slabs_do_not_change_the_tokens(monkeypatch):
    want = generate_base_novel(small_spec(), 3, 5)
    monkeypatch.setattr(features, "_SLAB", 3)  # ragged slabs across class boundaries
    got = generate_base_novel(small_spec(), 3, 5)
    for a, b in zip(got, want):
        assert a.content_bytes() == b.content_bytes()


# --- file format ---------------------------------------------------------------

def test_round_trip_bit_exact(tmp_path):
    train, _ = generate_episode(small_spec(), 2, 1)
    path = tmp_path / "feat.spot"
    write_features(train, path)
    back = read_features(path)
    assert np.array_equal(back.tokens, train.tokens)
    assert np.array_equal(back.labels, train.labels)
    assert np.array_equal(back.text_embeddings, train.text_embeddings)
    assert back.split == train.split
    assert back.content_bytes() == train.content_bytes()
    # writing the reread set reproduces the file byte-for-byte
    path2 = tmp_path / "feat2.spot"
    write_features(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unlabeled_round_trip(tmp_path):
    train, _ = generate_episode(small_spec(), 1, 1)
    bare = FeatureSet(tokens=train.tokens.copy(), labels=None,
                      text_embeddings=train.text_embeddings.copy())
    path = tmp_path / "bare.spot"
    write_features(bare, path)
    back = read_features(path)
    assert back.labels is None
    assert np.array_equal(back.tokens, bare.tokens)


def test_bad_magic(tmp_path):
    train, _ = generate_episode(small_spec(), 1, 1)
    path = tmp_path / "feat.spot"
    write_features(train, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_features(path)


def test_header_mismatch_on_missing_item(tmp_path):
    train, _ = generate_episode(small_spec(), 2, 1)
    path = tmp_path / "feat.spot"
    write_features(train, path)
    raw = path.read_bytes()
    # drop one item's worth of token payload from the end
    cut = train.n_tok * train.d * 4
    path.write_bytes(raw[:-cut])
    with pytest.raises(HeaderMismatch):
        read_features(path)


def test_truncated_header(tmp_path):
    train, _ = generate_episode(small_spec(), 1, 1)
    path = tmp_path / "feat.spot"
    write_features(train, path)
    path.write_bytes(path.read_bytes()[:12])  # cuts inside the JSON header
    with pytest.raises(TruncatedFile):
        read_features(path)


def test_label_out_of_range_rejected():
    train, _ = generate_episode(small_spec(), 1, 1)
    with pytest.raises(InvalidSpec):
        FeatureSet(tokens=train.tokens.copy(),
                   labels=np.full(train.n_items, 99, dtype=np.uint32),
                   text_embeddings=train.text_embeddings.copy())
