import numpy as np
import pytest

from kgroups import Component, InputError, MixtureSpec, generate


def two_normals(n=200, seed=0, d=3.0):
    return MixtureSpec(
        components=(
            Component(0.5, "normal", (0.0, 1.0)),
            Component(0.5, "normal", (d, 1.0)),
        ),
        dim=1,
        n=n,
        seed=seed,
    )


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InputError):
            MixtureSpec(
                components=(
                    Component(0.5, "normal", (0.0, 1.0)),
                    Component(0.6, "normal", (3.0, 1.0)),
                ),
                dim=1,
                n=10,
                seed=0,
            )

    @pytest.mark.parametrize("build, field", [
        (lambda: Component(1.0, "normal", None), "params"),
        (lambda: Component(1.0, "normal", ("a", 1)), "params"),
        (lambda: Component(1.0, "normal", "12"), "params"),  # not (1.0, 2.0)
        (lambda: Component(1.0, "normal", 5), "params"),
        (lambda: Component(1.0, "normal", (True, False)), "params"),  # not (1.0, 0.0)
        (lambda: MixtureSpec(components=5, dim=1, n=10, seed=0), "components"),
        (lambda: MixtureSpec(components=(1,), dim=1, n=10, seed=0), "components"),
        (lambda: MixtureSpec(components="ab", dim=1, n=10, seed=0), "components"),
        (lambda: MixtureSpec(components=(Component(1.0, "normal", (0, 1)), None), dim=1, n=10, seed=0),
         "components"),
    ])
    def test_ill_typed_sequence_fields_raise_input_error(self, build, field):
        with pytest.raises(InputError, match=f"^{field} must be"):
            build()

    def test_lognormal_scale_must_be_positive(self):
        with pytest.raises(InputError):
            Component(1.0, "lognormal", (0.0, 0.0))

    def test_cauchy_scale_must_be_positive(self):
        with pytest.raises(InputError):
            Component(1.0, "cauchy", (0.0, -1.0))

    def test_cubic_needs_low_below_high(self):
        with pytest.raises(InputError):
            Component(1.0, "cubic_uniform", (0.7, 0.3))

    def test_unknown_family(self):
        with pytest.raises(InputError):
            Component(1.0, "gamma", (1.0, 1.0))

    def test_normal_scale_zero_is_degenerate_not_invalid(self):
        spec = MixtureSpec(
            components=(Component(1.0, "normal", (4.5, 0.0)),), dim=2, n=6, seed=1
        )
        sample = generate(spec)
        assert np.all(sample.data == 4.5)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(two_normals(seed=77))
        b = generate(two_normals(seed=77))
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.truth, b.truth)

    def test_different_seeds_differ(self):
        a = generate(two_normals(seed=1))
        b = generate(two_normals(seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_shapes_and_truth_range(self):
        sample = generate(two_normals(n=50))
        assert sample.data.shape == (50, 1)
        assert sample.truth.shape == (50,)
        assert set(np.unique(sample.truth)) <= {0, 1}

    def test_mixture_mean_law_of_large_numbers(self):
        # component means 0 and 3 at equal weight: population mean 1.5
        sample = generate(two_normals(n=10000, seed=5))
        assert abs(float(sample.data.mean()) - 1.5) <= 0.05

    def test_cubic_support(self):
        spec = MixtureSpec(
            components=(Component(1.0, "cubic_uniform", (0.0, 1.0)),),
            dim=20,
            n=100,
            seed=3,
        )
        sample = generate(spec)
        assert sample.data.shape == (100, 20)
        assert np.all((sample.data >= 0.0) & (sample.data <= 1.0))

    def test_component_counts_unbiased(self):
        # over 1000 replicates of a 0.5/0.5 mixture with n=200, the mean
        # count of component 0 sits at 100
        counts = []
        for seed in range(1000):
            truth = generate(two_normals(n=200, seed=seed)).truth
            counts.append(int((truth == 0).sum()))
        assert abs(float(np.mean(counts)) - 100.0) <= 2.0

    def test_lognormal_is_exp_of_normal(self):
        spec = MixtureSpec(
            components=(Component(1.0, "lognormal", (0.4, 0.9)),), dim=1, n=100000, seed=9
        )
        logs = np.log(generate(spec).data)
        assert abs(float(logs.mean()) - 0.4) <= 0.02
        assert abs(float(logs.std(ddof=1)) - 0.9) <= 0.02

    def test_truth_indexes_generating_component(self):
        # far-separated components make membership recoverable from values
        spec = MixtureSpec(
            components=(
                Component(0.5, "normal", (0.0, 0.01)),
                Component(0.5, "normal", (100.0, 0.01)),
            ),
            dim=1,
            n=300,
            seed=4,
        )
        sample = generate(spec)
        inferred = (sample.data[:, 0] > 50.0).astype(int)
        assert np.array_equal(inferred, sample.truth)


def cauchy_draws(location, scale, n, seed):
    # a one-component cauchy mixture: the library's only Cauchy draw
    comp = Component(1.0, "cauchy", (location, scale))
    return generate(MixtureSpec(components=(comp,), dim=1, n=n, seed=seed)).data[:, 0]


class TestCauchySample:
    def test_median_concentrates_at_location_zero(self):
        vals = cauchy_draws(0.0, 1.0, 100001, seed=2)
        assert abs(float(np.median(vals))) <= 0.03

    def test_median_concentrates_at_location_three(self):
        vals = cauchy_draws(3.0, 1.0, 100001, seed=6)
        assert abs(float(np.median(vals)) - 3.0) <= 0.03

    def test_midpoint_uniform_maps_to_location(self):
        # the inverse CDF at u = 1/2 is exactly the location parameter
        assert float(np.tan(np.pi * (0.5 - 0.5))) == 0.0

    def test_scale_must_be_positive(self):
        with pytest.raises(InputError):
            Component(1.0, "cauchy", (0.0, 0.0))

    def test_deterministic(self):
        assert np.array_equal(cauchy_draws(1.0, 2.0, 50, 8), cauchy_draws(1.0, 2.0, 50, 8))
