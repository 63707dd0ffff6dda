"""Tests for dataset utilities and wire encodings."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.workloads import Dataset, decode_results, encode_samples


class TestEncoding:
    def test_encode_layout_row_major(self):
        data = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8)
        assert encode_samples(data) == bytes([1, 2, 3, 4, 5, 6])

    def test_encode_accepts_float_integrals(self):
        data = np.array([[1.0, 2.0]])
        assert encode_samples(data) == bytes([1, 2])

    def test_encode_rejects_out_of_byte_range(self):
        with pytest.raises(ReproError):
            encode_samples(np.array([[256]]))
        with pytest.raises(ReproError):
            encode_samples(np.array([[-1]]))

    def test_encode_rejects_fractions(self):
        with pytest.raises(ReproError):
            encode_samples(np.array([[0.5]]))

    def test_encode_rejects_1d(self):
        with pytest.raises(ReproError):
            encode_samples(np.array([1, 2, 3]))

    def test_decode_results_roundtrip(self):
        values = np.array([-1.5, -2.25, -3.0])
        out = decode_results(values.tobytes(), n_samples=3)
        np.testing.assert_array_equal(out, values)

    def test_decode_rejects_ragged_payload(self):
        with pytest.raises(ReproError):
            decode_results(b"\x00" * 12)

    def test_decode_rejects_count_mismatch(self):
        with pytest.raises(ReproError):
            decode_results(np.zeros(2).tobytes(), n_samples=3)


class TestDataset:
    def test_geometry(self):
        ds = Dataset("d", np.zeros((5, 10), dtype=np.uint8))
        assert ds.n_rows == 5
        assert ds.n_variables == 10
        assert ds.sample_bytes == 10
        assert ds.transfer_bits_per_sample == 144

    def test_rejects_non_2d(self):
        with pytest.raises(ReproError):
            Dataset("d", np.zeros(5))
