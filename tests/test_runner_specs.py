"""JobSpec, suite expansion, and environment-knob validation."""

import pytest

from repro.runner import JobSpec, suite_jobs, positive_int_env


class TestJobSpec:
    def test_make_canonicalises_params(self):
        a = JobSpec.make("hlatch", "gcc", trace_window=5_000, foo=1)
        b = JobSpec.make("hlatch", "gcc", foo=1, trace_window=5_000)
        assert a == b
        assert a.params == (("foo", 1), ("trace_window", 5_000))
        assert a.job_id == "hlatch:gcc"
        assert a.param("trace_window") == 5_000
        assert a.param("absent", 7) == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec.make("nonsense", "gcc")

    def test_dict_round_trip(self):
        spec = JobSpec.make("slatch", "curl", seed=3,
                            epoch_scale=100_000, trace_window=5_000)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_key_is_stable_and_content_addressed(self):
        base = JobSpec.make("taint_fraction", "wget", epoch_scale=100_000)
        same = JobSpec.make("taint_fraction", "wget", epoch_scale=100_000)
        assert base.key() == same.key()
        assert len(base.key()) == 64
        variants = [
            JobSpec.make("taint_fraction", "wget", epoch_scale=200_000),
            JobSpec.make("taint_fraction", "wget", seed=1,
                         epoch_scale=100_000),
            JobSpec.make("taint_fraction", "curl", epoch_scale=100_000),
            JobSpec.make("hlatch", "wget", epoch_scale=100_000),
        ]
        keys = {base.key()} | {spec.key() for spec in variants}
        assert len(keys) == len(variants) + 1

    def test_key_tracks_profile_calibration(self, monkeypatch):
        """Recalibrating a workload profile invalidates its cells."""
        import repro.workloads.profiles as profiles

        spec = JobSpec.make("taint_fraction", "wget", epoch_scale=100_000)
        before = spec.key()
        original = profiles.get_profile("wget")
        import dataclasses

        tweaked = dataclasses.replace(
            original, taint_percent=original.taint_percent + 0.01
        )
        monkeypatch.setattr(
            "repro.runner.specs.get_profile", lambda name: tweaked
        )
        assert spec.key() != before

    @pytest.mark.parametrize("kind", ["hlatch", "slatch", "page_taint"])
    def test_key_ignores_the_retired_kernel_backend_variable(
        self, kind, monkeypatch
    ):
        # One replay path: the variable that used to pick the kernel
        # backend must not split the cache.
        spec = JobSpec.make(kind, "gcc", trace_window=5_000)
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        unset = spec.key()
        for value in ("scalar", "vector"):
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", value)
            assert spec.key() == unset

    def test_chaos_workloads_have_no_profile(self):
        spec = JobSpec.make("chaos", "not-a-benchmark", value=1)
        assert spec._profile_fingerprint() is None
        assert len(spec.key()) == 64


class TestSuiteJobs:
    def test_smoke_suite_expands_to_six_jobs(self):
        jobs = suite_jobs("smoke", epoch_scale=100_000, trace_window=5_000)
        assert len(jobs) == 6
        assert {spec.kind for spec in jobs} == {
            "taint_fraction", "page_taint", "hlatch",
        }
        assert {spec.workload for spec in jobs} == {"gcc", "curl"}
        for spec in jobs:
            if spec.kind == "taint_fraction":
                assert spec.param("epoch_scale") == 100_000
            if spec.kind == "hlatch":
                assert spec.param("trace_window") == 5_000

    def test_seed_propagates_to_every_spec(self):
        jobs = suite_jobs("smoke", epoch_scale=100_000,
                          trace_window=5_000, seed=11)
        assert all(spec.seed == 11 for spec in jobs)

    def test_benchmarks_filter(self):
        jobs = suite_jobs("table1", epoch_scale=100_000,
                          benchmarks=["gcc", "astar"])
        assert sorted(spec.workload for spec in jobs) == ["astar", "gcc"]

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            suite_jobs("no-such-suite")

    def test_tables_suite_covers_full_grid(self):
        jobs = suite_jobs("tables", epoch_scale=100_000, trace_window=5_000)
        assert len(jobs) == 27 * 3
        assert len({spec.job_id for spec in jobs}) == len(jobs)


class TestPositiveIntEnv:
    def test_default_when_unset_or_blank(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert positive_int_env("REPRO_TEST_KNOB", 42) == 42
        monkeypatch.setenv("REPRO_TEST_KNOB", "  ")
        assert positive_int_env("REPRO_TEST_KNOB", 42) == 42

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "123")
        assert positive_int_env("REPRO_TEST_KNOB", 42) == 123

    @pytest.mark.parametrize("raw", ["abc", "1.5", "1e6"])
    def test_non_integer_rejected_with_name(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            positive_int_env("REPRO_TEST_KNOB", 42)

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        with pytest.raises(ValueError, match="positive integer"):
            positive_int_env("REPRO_TEST_KNOB", 42)
