"""Unit tests for the plant data-model containers."""

from __future__ import annotations

import pytest

from repro.plant import CAQResult, FaultKind


class TestPhaseRecord:

    def test_duration(self, small_plant):
        phase = next(small_plant.iter_jobs()).phases[0]
        assert phase.duration == len(next(iter(phase.series.values())))


class TestJobRecord:
    def test_phase_lookup(self, small_plant):
        job = next(small_plant.iter_jobs())
        assert job.phase("printing").name == "printing"
        with pytest.raises(KeyError):
            job.phase("nonexistent")

    def test_end_after_start(self, small_plant):
        for job in small_plant.iter_jobs():
            assert job.end > job.start

    def test_setup_vector_ordering(self, small_plant):
        job = next(small_plant.iter_jobs())
        keys = ("layer_height_um", "scan_speed_mm_s")
        vec = job.setup_vector(keys)
        assert vec[0] == job.setup["layer_height_um"]
        assert vec[1] == job.setup["scan_speed_mm_s"]

    def test_default_vector_sorted_keys(self, small_plant):
        job = next(small_plant.iter_jobs())
        vec = job.setup_vector()
        expected = [job.setup[k] for k in sorted(job.setup)]
        assert vec.tolist() == expected


class TestCAQResult:
    def test_vector_roundtrip(self):
        caq = CAQResult({"a": 1.0, "b": 2.0}, passed=True)
        assert caq.vector(("b", "a")).tolist() == [2.0, 1.0]
        assert caq.vector().tolist() == [1.0, 2.0]  # sorted default

    def test_measurement_names_stable(self):
        names = CAQResult.measurement_names()
        assert names == (
            "dimension_error_um", "porosity_pct", "surface_roughness_um",
            "tensile_mpa",
        )


class TestDatasetNavigation:
    def test_iterators_consistent(self, small_plant):
        machines = list(small_plant.iter_machines())
        jobs = list(small_plant.iter_jobs())
        assert len(jobs) == sum(len(m.jobs) for m in machines)

    def test_line_of(self, small_plant):
        machine = next(small_plant.iter_machines())
        line = small_plant.line_of(machine.machine_id)
        assert machine.machine_id in {m.machine_id for m in line.machines}

    def test_machine_channel_lookup(self, small_plant):
        machine = next(small_plant.iter_machines())
        channel = machine.channels[0]
        assert machine.channel(channel.sensor_id) is channel
        with pytest.raises(KeyError):
            machine.channel("nope")

    def test_faults_of_kind_partitions(self, small_plant):
        total = sum(
            len(small_plant.faults_of_kind(kind)) for kind in FaultKind
        )
        assert total == len(small_plant.faults)

    def test_redundancy_group_namespaced_by_machine(self, small_plant):
        machines = list(small_plant.iter_machines())
        g0 = set(machines[0].redundancy_groups())
        g1 = set(machines[1].redundancy_groups())
        assert g0.isdisjoint(g1)  # machine id is part of the group key
