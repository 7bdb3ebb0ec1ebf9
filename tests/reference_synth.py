"""The synthetic corpus generator with one scalar draw per uniform.

This is how `corpus.synth_text` was written before it drew its uniforms in
blocks, kept here as the oracle the block-drawing generator is tested
against: for every (n_bytes, seed) its bytes must match, byte for byte.
"""
import numpy as np

from mupt.corpus import _WORDS
from mupt.errors import ConfigError
from mupt.rng import SeededRng


def synth_text(n_bytes: int, seed: int) -> bytes:
    """Deterministic pseudo-text: Zipf-weighted common words with punctuation.

    Pure function of (n_bytes, seed); used by tests, demos, and any run that
    does not bring its own corpus.
    """
    if n_bytes < 8:
        raise ConfigError(f"n_bytes must be >= 8, got {n_bytes}")
    rng = SeededRng(seed).spawn("synth-text")
    weights = 1.0 / np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    cdf = np.cumsum(weights / weights.sum())
    pieces: list[str] = []
    size = 0
    sentence_len = 0
    while size < n_bytes:
        w = _WORDS[int(np.searchsorted(cdf, float(rng.uniform(0.0, 1.0))))]
        sentence_len += 1
        if sentence_len == 1:
            w = w.capitalize()
        end = float(rng.uniform(0.0, 1.0))
        if sentence_len >= 6 and end < 0.22:
            w += ".\n" if end < 0.05 else "."
            sentence_len = 0
        elif end > 0.93:
            w += ","
        pieces.append(w)
        size += len(w) + 1
    text = " ".join(pieces)
    return text.encode("ascii")[:n_bytes]
