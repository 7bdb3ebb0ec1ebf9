"""Text to token chunks, plus masked-language-model corruption.

Byte-level tokenization is the default: ids 0..255 are raw bytes and three
specials follow (MASK 256, PAD 257, UNK 258; UNK is unreachable for bytes but
keeps the id layout shared with the word tokenizer). A word tokenizer with a
frequency-capped vocabulary is available behind the same Corpus shape.

Masking follows BERT's corruption rule: round(ratio * maskable) distinct
positions are selected; of those, 80% become MASK, 10% a random plain token,
and 10% stay unchanged. Targets are defined at selected positions only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .rng import SeededRng

__all__ = [
    "MASK_ID", "PAD_ID", "UNK_ID", "BYTE_VOCAB",
    "Corpus", "encode_corpus", "decode_bytes", "mask_tokens",
    "synth_text", "split_chunks",
]

MASK_ID = 256
PAD_ID = 257
UNK_ID = 258
BYTE_VOCAB = 259


@dataclass
class Corpus:
    """Fixed-length token chunks plus the tokenizer that produced them.

    ids is (num_chunks, seq_len); short tails are padded with pad_id. n_plain
    is the count of ordinary (non-special) vocabulary entries, i.e. the range
    random replacement tokens are drawn from.
    """

    ids: np.ndarray = field(repr=False)
    seq_len: int
    vocab_size: int
    n_plain: int
    mask_id: int
    pad_id: int
    unk_id: int
    tokenizer: dict = field(default_factory=dict)

    @property
    def num_chunks(self) -> int:
        return self.ids.shape[0]

    def token_mask(self, chunk: np.ndarray) -> np.ndarray:
        return chunk != self.pad_id


def encode_corpus(text: str | bytes, seq_len: int, tokenizer: str = "byte",
                  max_word_vocab: int = 8192) -> Corpus:
    """Tokenize text and cut it into fixed-length chunks.

    The final short chunk is padded; a tail with fewer than two real tokens is
    dropped because inference needs at least two positions per sequence.
    """
    if seq_len < 2:
        raise ConfigError(f"seq_len must be >= 2, got {seq_len}")
    if tokenizer == "byte":
        raw = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        ids = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        vocab_size, n_plain = BYTE_VOCAB, 256
        mask_id, pad_id, unk_id = MASK_ID, PAD_ID, UNK_ID
        spec: dict = {"kind": "byte"}
    elif tokenizer == "word":
        if isinstance(text, bytes):
            text = text.decode("utf-8", errors="replace")
        words = text.split()
        if not words:
            raise ConfigError("empty text")
        counts: dict[str, int] = {}
        first: dict[str, int] = {}
        for pos, w in enumerate(words):
            counts[w] = counts.get(w, 0) + 1
            first.setdefault(w, pos)
        # frequency-ranked, first-occurrence ties: deterministic vocabulary
        ranked = sorted(counts, key=lambda w: (-counts[w], first[w]))[:max_word_vocab]
        index = {w: i for i, w in enumerate(ranked)}
        n_plain = len(ranked)
        mask_id, pad_id, unk_id = n_plain, n_plain + 1, n_plain + 2
        vocab_size = n_plain + 3
        ids = np.array([index.get(w, unk_id) for w in words], dtype=np.int64)
        spec = {"kind": "word", "vocab": ranked}
    else:
        raise ConfigError(f"unknown tokenizer: {tokenizer!r}")

    if ids.size < 2:
        raise ConfigError("text yields fewer than two tokens")
    n_full = ids.size // seq_len
    tail = ids.size - n_full * seq_len
    chunks = [ids[:n_full * seq_len].reshape(n_full, seq_len)] if n_full else []
    if tail >= 2:
        padded = np.full((1, seq_len), pad_id, dtype=np.int64)
        padded[0, :tail] = ids[n_full * seq_len:]
        chunks.append(padded)
    if not chunks:
        raise ConfigError("text too short for one chunk of two real tokens")
    all_chunks = np.concatenate(chunks, axis=0)
    return Corpus(ids=all_chunks, seq_len=seq_len, vocab_size=vocab_size,
                  n_plain=n_plain, mask_id=mask_id, pad_id=pad_id,
                  unk_id=unk_id, tokenizer=spec)


def decode_bytes(corpus: Corpus, ids: np.ndarray | None = None) -> bytes:
    """Back to bytes (byte tokenizer only); padding and specials are dropped."""
    if corpus.tokenizer.get("kind") != "byte":
        raise ConfigError("decode_bytes requires the byte tokenizer")
    flat = (corpus.ids if ids is None else np.asarray(ids)).reshape(-1)
    return bytes(flat[flat < 256].astype(np.uint8).tobytes())


def mask_tokens(seq: np.ndarray, ratio: float, rng: SeededRng,
                corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corrupt one sequence; returns (corrupted, targets, selected).

    selected is boolean over positions; targets carries the original token at
    selected positions (zeros elsewhere, never read). Padding is never
    maskable. The ratio of the maskable positions is rounded, but at least
    one is selected, so a short padded tail chunk still has a loss; a
    sequence with no maskable position is an error.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"mask ratio must be in (0, 1], got {ratio}")
    seq = np.asarray(seq)
    maskable_idx = np.flatnonzero(corpus.token_mask(seq))
    if maskable_idx.size == 0:
        raise ConfigError("mask_tokens: the sequence has no maskable position")
    count = max(1, int(round(ratio * maskable_idx.size)))
    order = rng.permutation(maskable_idx.size)
    chosen = maskable_idx[order[:count]]

    corrupted = seq.copy()
    selected = np.zeros(seq.shape, dtype=bool)
    selected[chosen] = True
    targets = np.where(selected, seq, 0)

    u = rng.uniform(0.0, 1.0, chosen.shape)
    replacements = rng.integers(0, corpus.n_plain, chosen.shape)
    corrupted[chosen] = np.where(u < 0.8, corpus.mask_id,
                                 np.where(u < 0.9, replacements, seq[chosen]))
    return corrupted, targets, selected


def split_chunks(corpus: Corpus, eval_fraction: float, rng: SeededRng) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint (train_idx, eval_idx) chunk splits, deterministic in rng."""
    if not 0.0 < eval_fraction < 1.0:
        raise ConfigError(f"eval_fraction must be in (0, 1), got {eval_fraction}")
    n = corpus.num_chunks
    if n < 2:
        raise ConfigError("need at least two chunks to split")
    order = rng.permutation(n)
    n_eval = min(max(1, int(round(eval_fraction * n))), n - 1)
    return np.sort(order[n_eval:]), np.sort(order[:n_eval])


_WORDS = (
    "the of and to a in that it was for on are with as his they at be this "
    "have from or had by word but what some we can out other were all there "
    "when up use your how said an each she which do their time if will way "
    "about many then them write would like so these her long make thing see "
    "him two has look more day could go come did number sound no most people "
    "my over know water than call first who may down side been now find any "
    "new work part take get place made live where after back little only "
    "round man year came show every good me give our under name very through "
    "just form sentence great think say help low line differ turn cause much "
    "mean before move right boy old too same tell does set three want air "
    "well also play small end put home read hand port large spell add even "
    "land here must big high such follow act why ask men change went light "
    "kind off need house picture try us again animal point mother world near "
    "build self earth father head stand own page should country found answer "
    "school grow study still learn plant cover food sun four between state "
    "keep eye never last let thought city tree cross farm hard start might "
    "story saw far sea draw left late run while press close night real life "
    "few north open seem together next white children begin got walk example "
    "ease paper group always music those both mark often letter until mile "
    "river car feet care second book carry took science eat room friend began "
    "idea fish mountain stop once base hear horse cut sure watch color face "
    "wood main enough plain girl usual young ready above ever red list though "
    "feel talk bird soon body dog family direct pose leave song measure door "
    "product black short numeral class wind question happen complete ship "
    "area half rock order fire south problem piece told knew pass since top "
    "whole king space heard best hour better true during hundred five "
).split()


# Zipf weights over _WORDS: the i-th word is drawn with probability ~ 1/(i+1).
_ZIPF = 1.0 / np.arange(1, len(_WORDS) + 1, dtype=np.float64)
_WORD_CDF = np.cumsum(_ZIPF / _ZIPF.sum())
# Uniforms synth_text draws at once: 1024 words of two draws each.
_SYNTH_BLOCK = 2048


def synth_text(n_bytes: int, seed: int) -> bytes:
    """Deterministic pseudo-text: Zipf-weighted common words with punctuation.

    Pure function of (n_bytes, seed); used by tests, demos, and any run that
    does not bring its own corpus. Each word takes two uniforms from the
    private `synth-text` stream, in stream order: the first picks the word,
    the second ends the sentence or adds a comma. The uniforms are drawn in
    blocks of _SYNTH_BLOCK, and PCG64 draws an array as the same successive
    doubles as one call each, so no block size changes a byte; the draws
    past the last word are never read.
    """
    if n_bytes < 8:
        raise ConfigError(f"n_bytes must be >= 8, got {n_bytes}")
    rng = SeededRng(seed).spawn("synth-text")
    pieces: list[str] = []
    size = 0
    sentence_len = 0
    while size < n_bytes:
        u = rng.uniform(0.0, 1.0, _SYNTH_BLOCK)
        for i, end in zip(np.searchsorted(_WORD_CDF, u[0::2]).tolist(), u[1::2].tolist()):
            sentence_len += 1
            w = _WORDS[i]
            if sentence_len == 1:
                w = w.capitalize()
            if sentence_len >= 6 and end < 0.22:
                w += ".\n" if end < 0.05 else "."
                sentence_len = 0
            elif end > 0.93:
                w += ","
            pieces.append(w)
            size += len(w) + 1
            if size >= n_bytes:
                break
    text = " ".join(pieces)
    return text.encode("ascii")[:n_bytes]
