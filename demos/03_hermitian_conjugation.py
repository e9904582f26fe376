"""Hermitian conjugation as two gates on the real/imaginary-marker encoding.

With entries split as a = re + i*im over registers R (row), C (column) and a
one-qubit marker M (|0> real, |1> imaginary), the conjugate transpose is just
Z on M (negate imaginary parts) followed by SWAP(R, C) (transpose), for a
matrix of any shape: R and C exchange their widths.  No measurement, no
garbage, and applying it twice is the identity.
"""

import numpy as np

from qlasim import decode_rcm, encode_rcm, hermitian_conjugate

rng = np.random.default_rng(1)

print("scalar sanity check: [[i]] conjugates to [[-i]]")
print(decode_rcm(hermitian_conjugate(encode_rcm([[1j]]))).matrix)

a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
print("\nrectangular 3x5 input (encoded as 4x8; the swap needs no square padding):")
print(np.round(a, 3))

enc = encode_rcm(a)
conj = hermitian_conjugate(enc)
decoded = decode_rcm(conj)
print(f"\nconjugate shape: {decoded.matrix.shape}")
print("max |decoded - a^dagger| =",
      np.max(np.abs(decoded.matrix - a.conj().T)))

back = hermitian_conjugate(conj)
print("\napplying the operator twice returns the original encoding:")
print("same register layout:", back.state.layout == enc.state.layout)
print("max state difference =",
      np.max(np.abs(back.state.amplitudes - enc.state.amplitudes)))
print("max |round-trip matrix - a| =",
      np.max(np.abs(decode_rcm(back).matrix - a)))

h = a @ a.conj().T  # Hermitian by construction
fixed = decode_rcm(hermitian_conjugate(encode_rcm(h))).matrix
print("\na Hermitian matrix is a fixed point: max |W(h) - h| =",
      np.max(np.abs(fixed - h)))
