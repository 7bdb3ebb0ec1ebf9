"""Tokenization, chunking, corruption, and the synthetic corpus generator."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_synth
from mupt import corpus as corpus_module
from mupt.corpus import (
    BYTE_VOCAB,
    MASK_ID,
    PAD_ID,
    UNK_ID,
    decode_bytes,
    encode_corpus,
    mask_tokens,
    split_chunks,
    synth_text,
)
from mupt.errors import ConfigError
from mupt.rng import SeededRng


def test_byte_roundtrip_exact_multiple():
    text = b"hello world, this is 32 bytes!!!"
    corpus = encode_corpus(text, seq_len=8)
    assert corpus.ids.shape == (4, 8)
    assert corpus.vocab_size == BYTE_VOCAB
    assert corpus.n_plain == 256
    assert (corpus.mask_id, corpus.pad_id, corpus.unk_id) == (MASK_ID, PAD_ID, UNK_ID)
    assert decode_bytes(corpus) == text


def test_byte_tail_padding():
    text = b"0123456789abcdefghi"  # 19 bytes: two full chunks of 8 plus tail 3
    corpus = encode_corpus(text, seq_len=8)
    assert corpus.num_chunks == 3
    assert (corpus.ids[2] == PAD_ID).sum() == 5
    assert decode_bytes(corpus) == text
    np.testing.assert_array_equal(corpus.token_mask(corpus.ids[2]),
                                  [True] * 3 + [False] * 5)


def test_byte_tail_of_one_dropped():
    text = b"0123456789abcdefg"  # tail of one real token cannot form a sequence
    corpus = encode_corpus(text, seq_len=8)
    assert corpus.num_chunks == 2
    assert decode_bytes(corpus) == text[:16]


def test_encode_validation():
    with pytest.raises(ConfigError):
        encode_corpus(b"abcd", seq_len=1)
    with pytest.raises(ConfigError):
        encode_corpus(b"x", seq_len=8)
    with pytest.raises(ConfigError):
        encode_corpus(b"abcd", seq_len=8, tokenizer="sentencepiece")


def test_str_input_uses_utf8():
    corpus = encode_corpus("héllo wörld", seq_len=4)
    assert decode_bytes(corpus).decode("utf-8").startswith("héllo")


def test_word_tokenizer():
    corpus = encode_corpus("a b a c a b", seq_len=6, tokenizer="word")
    # frequency order: a(3), b(2), c(1); specials follow the plain vocab
    assert corpus.n_plain == 3
    assert corpus.vocab_size == 6
    assert (corpus.mask_id, corpus.pad_id, corpus.unk_id) == (3, 4, 5)
    np.testing.assert_array_equal(corpus.ids[0], [0, 1, 0, 2, 0, 1])
    assert corpus.tokenizer["vocab"] == ["a", "b", "c"]


def test_word_vocab_cap_maps_to_unk():
    corpus = encode_corpus("a b a c a b", seq_len=6, tokenizer="word", max_word_vocab=2)
    assert corpus.n_plain == 2
    assert corpus.unk_id == 4
    np.testing.assert_array_equal(corpus.ids[0], [0, 1, 0, 4, 0, 1])
    with pytest.raises(ConfigError):
        decode_bytes(corpus)


def test_mask_tokens_deterministic_and_counted():
    corpus = encode_corpus(synth_text(4096, 0), seq_len=64)
    seq = corpus.ids[0]
    a = mask_tokens(seq, 0.15, SeededRng(5), corpus)
    b = mask_tokens(seq, 0.15, SeededRng(5), corpus)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    corrupted, targets, selected = a
    assert selected.sum() == round(0.15 * 64)
    np.testing.assert_array_equal(targets[selected], seq[selected])
    np.testing.assert_array_equal(targets[~selected], 0)
    np.testing.assert_array_equal(corrupted[~selected], seq[~selected])


def test_mask_tokens_bert_proportions():
    corpus = encode_corpus(synth_text(8192, 3), seq_len=2048)
    seq = corpus.ids[0]
    corrupted, _, selected = mask_tokens(seq, 1.0, SeededRng(2), corpus)
    n = selected.sum()
    frac_mask = (corrupted[selected] == corpus.mask_id).mean()
    frac_same = (corrupted[selected] == seq[selected]).mean()
    assert n == 2048
    assert abs(frac_mask - 0.8) < 0.04
    assert abs(frac_same - 0.1) < 0.04  # random replacement rarely collides


def test_mask_tokens_never_touches_padding():
    text = b"0123456789abcdefghi"
    corpus = encode_corpus(text, seq_len=16)
    seq = corpus.ids[1]  # 3 real tokens, 13 pads
    corrupted, _, selected = mask_tokens(seq, 1.0, SeededRng(0), corpus)
    assert selected.sum() == 3
    np.testing.assert_array_equal(corrupted[seq == corpus.pad_id], corpus.pad_id)


def test_mask_tokens_validation():
    corpus = encode_corpus(synth_text(1024, 0), seq_len=16)
    seq = corpus.ids[0]
    with pytest.raises(ConfigError):
        mask_tokens(seq, 0.0, SeededRng(0), corpus)
    with pytest.raises(ConfigError):
        mask_tokens(seq, 1.5, SeededRng(0), corpus)
    # a ratio that rounds to no position still selects exactly one
    _, _, selected = mask_tokens(seq, 0.01, SeededRng(0), corpus)
    assert int(selected.sum()) == 1
    with pytest.raises(ConfigError, match="no maskable position"):
        mask_tokens(np.full_like(seq, corpus.pad_id), 0.15, SeededRng(0), corpus)


def test_split_chunks_disjoint_and_deterministic():
    corpus = encode_corpus(synth_text(4096, 1), seq_len=16)
    train, evl = split_chunks(corpus, 0.1, SeededRng(4))
    train2, evl2 = split_chunks(corpus, 0.1, SeededRng(4))
    np.testing.assert_array_equal(train, train2)
    np.testing.assert_array_equal(evl, evl2)
    assert set(train.tolist()).isdisjoint(evl.tolist())
    assert len(train) + len(evl) == corpus.num_chunks
    assert len(evl) == round(0.1 * corpus.num_chunks)
    with pytest.raises(ConfigError):
        split_chunks(corpus, 0.0, SeededRng(0))
    with pytest.raises(ConfigError):
        split_chunks(corpus, 1.0, SeededRng(0))


def test_synth_text_deterministic():
    a = synth_text(2048, 7)
    b = synth_text(2048, 7)
    assert a == b
    assert a != synth_text(2048, 8)


def test_synth_text_shape_and_content():
    out = synth_text(4096, 0)
    assert abs(len(out) - 4096) <= 1
    text = out.decode("ascii")
    assert "." in text and " " in text
    with pytest.raises(ConfigError):
        synth_text(4, 0)


# SHA-256 prefixes of synth_text(n_bytes, seed), recorded from the scalar-draw
# generator (tests/reference_synth.py). Every corpus, digest and golden line of
# the suite starts from these bytes, so no rewrite of the generator may move one.
_PINNED_SYNTH = {
    (8, 0): "bf3789e7f5fe8702",
    (1000, 3): "f721c30bac3ff1aa",
    (2048, 7): "50c1dad0cf01a1bd",
    (4096, 0): "af968a0e0ebd97de",
    (1 << 15, 0): "55daf9ec7d30abf3",
    (1 << 17, 0): "72fa762219a63d44",
    (1 << 17, 11): "f95717d212dcfa87",
    (1 << 20, 13): "0831ef928be1c034",
}


def test_synth_text_bytes_are_pinned():
    got = {key: hashlib.sha256(synth_text(*key)).hexdigest()[:16] for key in _PINNED_SYNTH}
    assert got == _PINNED_SYNTH


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n_bytes=st.integers(8, 65536), seed=st.integers(0, 2**32 - 1))
def test_synth_text_matches_the_scalar_draw_oracle(n_bytes, seed):
    assert synth_text(n_bytes, seed) == reference_synth.synth_text(n_bytes, seed)


def _word_ends(seed, n_words):
    """ends[k - 1] is the n_bytes at which synth_text(n_bytes, seed) stops
    after exactly k words: its words' lengths, each plus one space, summed."""
    pieces = reference_synth.synth_text(16 * n_words, seed).decode("ascii").split(" ")
    assert len(pieces) > n_words
    return np.cumsum([len(p) + 1 for p in pieces[:n_words]]).tolist()


@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_synth_text_matches_the_oracle_at_block_boundaries(seed):
    per_block = corpus_module._SYNTH_BLOCK // 2          # words per block
    ends = _word_ends(seed, 2 * per_block + 1)
    for boundary in (per_block, 2 * per_block):
        for words in (boundary - 1, boundary, boundary + 1):
            n_bytes = ends[words - 1]
            assert synth_text(n_bytes, seed) == reference_synth.synth_text(n_bytes, seed)


@pytest.mark.parametrize("block", [2, 6, 2046])
def test_no_block_size_changes_a_byte(monkeypatch, block):
    monkeypatch.setattr(corpus_module, "_SYNTH_BLOCK", block)
    for n_bytes, seed in [(8, 0), (1000, 3), (4096, 0), (1 << 15, 5)]:
        assert synth_text(n_bytes, seed) == reference_synth.synth_text(n_bytes, seed)
