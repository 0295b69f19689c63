import numpy as np
import pytest

from snipe import Design, load_design, load_treatment, sample, save_design, save_treatment, uniform_design
from snipe.design import validate_treatment_vector


def test_uniform_design_examples():
    d = uniform_design(3, 0.2)
    assert d.probs.tolist() == [0.2, 0.2, 0.2]
    assert d.p_floor == pytest.approx(0.2)
    assert uniform_design(3, 0.5).p_floor == pytest.approx(0.5)
    # above one half the floor reflects: p_i must lie in [p, 1-p]
    d = uniform_design(3, 0.7)
    assert d.probs.tolist() == [0.7, 0.7, 0.7]
    assert d.p_floor == pytest.approx(0.3)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_degenerate_probabilities_rejected(p):
    with pytest.raises(ValueError):
        uniform_design(4, p)


def test_design_validation():
    with pytest.raises(ValueError):
        Design(np.array([0.3, 1.0]))
    with pytest.raises(ValueError):
        Design(np.array([]))
    d = Design(np.array([0.2, 0.6, 0.85]))
    assert d.p_floor == pytest.approx(0.15)
    assert d.n == 3


def test_sampling_deterministic_per_seed():
    d = uniform_design(50, 0.3)
    assert np.array_equal(sample(d, 9), sample(d, 9))
    assert not np.array_equal(sample(d, 9), sample(d, 10))


def test_sample_marginal_calibration():
    # Binomial concentration: 6 sigma at n = 1e5, p = 0.2 is ~0.0076
    d = uniform_design(100000, 0.2)
    z = sample(d, 77)
    assert 0.19 <= z.mean() <= 0.21
    assert set(np.unique(z)) <= {0, 1}


def test_sample_pairwise_independence():
    d = uniform_design(30, 0.4)
    draws = np.stack([sample(d, k) for k in range(10000)])
    rng = np.random.default_rng(5)
    for _ in range(10):
        i, j = rng.choice(30, size=2, replace=False)
        corr = np.corrcoef(draws[:, i], draws[:, j])[0, 1]
        assert abs(corr) < 0.05


def test_treatment_vector_validation():
    z = validate_treatment_vector([0, 1, 1], 3)
    assert z.dtype == np.int64
    with pytest.raises(ValueError):
        validate_treatment_vector([0, 1], 3)
    with pytest.raises(ValueError):
        validate_treatment_vector([0, 2, 1], 3)


def test_design_file_roundtrip(tmp_path):
    d = Design(np.array([0.25, 0.5, 0.75]))
    path = tmp_path / "design.json"
    save_design(d, path)
    d2 = load_design(path)
    assert np.allclose(d2.probs, d.probs)
    assert d2.p_floor == pytest.approx(0.25)


def test_treatment_file_roundtrip(tmp_path):
    z = np.array([0, 1, 1, 0, 1])
    path = tmp_path / "z.csv"
    save_treatment(z, path)
    assert path.read_text() == "0,1,1,0,1\n"
    z2 = load_treatment(path, 5)
    assert np.array_equal(z, z2)
    with pytest.raises(ValueError):
        load_treatment(path, 4)


@pytest.mark.parametrize(
    "text, field",
    [
        ("[0.5, 0.5]", "top level"),
        ('{"probs": {"a": 1}}', "probs"),
        ('{"probs": ["0.5"]}', "probs"),
        ('{"probs": [null, 0.5]}', "probs"),
    ],
)
def test_design_loader_rejects_bad_containers(tmp_path, text, field):
    path = tmp_path / "design.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=field):
        load_design(path)


def test_nan_probability_rejected():
    with pytest.raises(ValueError):
        Design(np.array([0.5, np.nan]))


def test_sample_uses_a_passed_generator_as_is():
    # a Generator is advanced in place, not reseeded or copied, so a caller's
    # substream yields successive independent draws
    d = Design(np.array([0.2, 0.5, 0.7, 0.9]))
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    first = sample(d, rng)
    assert np.array_equal(first, (twin.random(4) < d.probs).astype(np.int64))
    assert np.array_equal(sample(d, rng), (twin.random(4) < d.probs).astype(np.int64))
    assert rng.random() == twin.random()
