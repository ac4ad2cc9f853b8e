"""First-stage observation model: exhaustive sounding of a column block.

Each sampled column is excited with a canonical (unit-power) transmit vector
while the receiver cycles a fixed square combiner bank, n_rf columns per
channel use. Stacking the uses gives Y = M^H (H_S + N), which any full-rank
bank inverts back to H_S + N, independent of the particular bank. A trial
therefore forms H_S + N directly; the bank route itself is a test oracle in
``tests/oracles.py``.
"""

from .numkit import sample_complex_gaussian


def _observe(block, sigma2, rng):
    """The block plus one noise draw of its shape: H_S + N, unchecked."""
    return block + sample_complex_gaussian(rng, *block.shape, sigma2)
