"""Unit tests for persistence (plant archives, report export)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import HierarchicalDetectionPipeline
from repro.io import load_plant, reports_to_json, reports_to_rows, save_plant


class TestPlantRoundTrip:
    @pytest.fixture(scope="class")
    def round_tripped(self, tmp_path_factory):
        from repro.plant import FaultConfig, PlantConfig, simulate_plant

        original = simulate_plant(PlantConfig(
            seed=77, n_lines=1, machines_per_line=2, jobs_per_machine=3,
            faults=FaultConfig(0.3, 0.3, 0.2),
        ))
        path = tmp_path_factory.mktemp("io") / "plant.npz"
        save_plant(original, path)
        return original, load_plant(path)

    def test_structure_preserved(self, round_tripped):
        original, loaded = round_tripped
        assert len(loaded.lines) == len(original.lines)
        assert [m.machine_id for m in loaded.iter_machines()] == [
            m.machine_id for m in original.iter_machines()
        ]
        assert loaded.setup_keys == original.setup_keys
        assert loaded.caq_keys == original.caq_keys

    def test_signals_bit_exact(self, round_tripped):
        original, loaded = round_tripped
        for jo, jl in zip(original.iter_jobs(), loaded.iter_jobs()):
            for po, pl in zip(jo.phases, jl.phases):
                for sid in po.series:
                    assert np.array_equal(
                        po.series[sid].values, pl.series[sid].values
                    )
                    assert po.series[sid].start == pl.series[sid].start
                assert po.events.symbols == pl.events.symbols

    def test_environment_preserved(self, round_tripped):
        original, loaded = round_tripped
        for lo, ll in zip(original.lines, loaded.lines):
            for kind in lo.environment:
                assert np.array_equal(
                    lo.environment[kind].values, ll.environment[kind].values
                )
                assert lo.environment[kind].step == ll.environment[kind].step

    def test_ground_truth_preserved(self, round_tripped):
        original, loaded = round_tripped
        assert len(loaded.faults) == len(original.faults)
        for fo, fl in zip(original.faults, loaded.faults):
            assert fo == fl

    def test_caq_and_setup_preserved(self, round_tripped):
        original, loaded = round_tripped
        for jo, jl in zip(original.iter_jobs(), loaded.iter_jobs()):
            assert jo.setup == jl.setup
            assert jo.caq.measurements == jl.caq.measurements
            assert jo.caq.passed == jl.caq.passed

    def test_pipeline_runs_identically_on_loaded(self, round_tripped):
        def export(dataset):
            pipeline = HierarchicalDetectionPipeline(dataset)
            reports = pipeline.run()
            return reports_to_json(reports, health=pipeline.health, stats=pipeline.stats())

        original, loaded = round_tripped
        assert export(loaded) == export(original)

    def test_series_are_disjoint_views_of_one_buffer(self, round_tripped):
        __, loaded = round_tripped
        arrays = [ts.values for ln in loaded.lines for ts in ln.environment.values()]
        arrays += [ts.values for job in loaded.iter_jobs() for ph in job.phases
                   for ts in ph.series.values()]
        base = arrays[0].base
        assert base is not None and all(a.base is base for a in arrays)
        spans = sorted(
            (a.__array_interface__["data"][0], a.nbytes) for a in arrays
        )
        for (start, size), (nxt, __) in zip(spans, spans[1:]):
            assert start + size <= nxt

    def test_nan_series_round_trip_bit_for_bit(self, tmp_path):
        from repro.plant import PlantConfig, simulate_plant

        original = simulate_plant(PlantConfig(
            seed=3, n_lines=1, machines_per_line=1, jobs_per_machine=2,
        ))
        phase = next(original.iter_jobs()).phases[0]
        sid, series = sorted(phase.series.items())[0]
        values = series.values.copy()
        values[::7] = np.nan
        # a NaN with a non-default payload must survive too
        values[1] = np.frombuffer(np.uint64(0x7FF8_0000_DEAD_BEEF).tobytes(), np.float64)[0]
        phase.series[sid] = series.replace(values=values)
        loaded = load_plant(save_plant(original, tmp_path / "nan.npz"))
        for jo, jl in zip(original.iter_jobs(), loaded.iter_jobs()):
            for po, pl in zip(jo.phases, jl.phases):
                assert sorted(po.series) == sorted(pl.series)
                for key in po.series:
                    assert po.series[key].values.tobytes() == pl.series[key].values.tobytes()
        loaded_phase = next(loaded.iter_jobs()).phases[0]
        assert np.isnan(loaded_phase.series[sid].values[::7]).all()


class TestPlantArchiveFormat:
    """Format 2: one ``__manifest__`` plus one float64 ``__values__``."""

    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        from repro.plant import PlantConfig, simulate_plant

        dataset = simulate_plant(PlantConfig(
            seed=3, n_lines=1, machines_per_line=1, jobs_per_machine=2,
        ))
        path = save_plant(dataset, tmp_path_factory.mktemp("fmt") / "plant.npz")
        with np.load(path) as npz:
            members = {name: npz[name] for name in npz.files}
        manifest = json.loads(bytes(members["__manifest__"]).decode("utf-8"))
        return path, manifest, members["__values__"]

    @staticmethod
    def _write(path, manifest=None, values=None, **extra):
        members = dict(extra)
        if manifest is not None:
            members["__manifest__"] = np.frombuffer(
                json.dumps(manifest).encode("utf-8"), dtype=np.uint8
            )
        if values is not None:
            members["__values__"] = values
        np.savez(path, **members)
        return path

    @staticmethod
    def _first_series(manifest):
        return manifest["lines"][0]["machines"][0]["jobs"][0]["phases"][0]["series"][0]

    def test_two_members_and_spans(self, archive):
        path, manifest, values = archive
        with np.load(path) as npz:
            assert sorted(npz.files) == ["__manifest__", "__values__"]
        assert manifest["format_version"] == 2
        assert values.dtype == np.float64 and values.ndim == 1
        entry = self._first_series(manifest)
        assert "key" not in entry
        offset, length = entry["span"]
        assert offset >= 0 and length > 0 and offset + length <= len(values)

    def test_suffix_appended_and_returned(self, tmp_path, small_plant):
        written = save_plant(small_plant, tmp_path / "plant")
        assert written == tmp_path / "plant.npz"
        assert written.exists()

    def test_format_1_rejected_with_fix(self, archive, tmp_path):
        __, manifest, __ = archive
        v1 = json.loads(json.dumps(manifest))
        v1["format_version"] = 1
        entry = self._first_series(v1)
        del entry["span"]
        entry["key"] = "s/0/0/0/0/x"
        path = self._write(tmp_path / "v1.npz", v1, **{"s/0/0/0/0/x": np.zeros(4)})
        with pytest.raises(ValueError, match=r"format 1.*re-save"):
            load_plant(path)

    def test_span_past_end_rejected(self, archive, tmp_path):
        __, manifest, values = archive
        bad = json.loads(json.dumps(manifest))
        entry = self._first_series(bad)
        entry["span"] = [len(values) - 2, 5]
        with pytest.raises(ValueError, match="span"):
            load_plant(self._write(tmp_path / "past.npz", bad, values))

    @pytest.mark.parametrize("span", [[-1, 3], [0, -1]])
    def test_negative_span_rejected(self, archive, tmp_path, span):
        __, manifest, values = archive
        bad = json.loads(json.dumps(manifest))
        self._first_series(bad)["span"] = span
        with pytest.raises(ValueError, match="span"):
            load_plant(self._write(tmp_path / "neg.npz", bad, values))

    @pytest.mark.parametrize(
        "values",
        [np.zeros((2, 3)), np.zeros(8, dtype=np.float32), np.arange(8)],
        ids=["2-D", "float32", "int"],
    )
    def test_values_must_be_1d_float64(self, archive, tmp_path, values):
        __, manifest, __ = archive
        with pytest.raises(ValueError, match="1-D float64"):
            load_plant(self._write(tmp_path / "dtype.npz", manifest, values))

    def test_missing_values_member(self, archive, tmp_path):
        __, manifest, __ = archive
        with pytest.raises(ValueError, match="__values__"):
            load_plant(self._write(tmp_path / "novalues.npz", manifest))

    def test_missing_manifest_member(self, archive, tmp_path):
        __, __, values = archive
        with pytest.raises(ValueError, match="__manifest__"):
            load_plant(self._write(tmp_path / "nomanifest.npz", values=values))


class TestReportExport:
    def test_rows_contain_triple(self, small_plant):
        reports = HierarchicalDetectionPipeline(small_plant).run()
        rows = reports_to_rows(reports)
        assert len(rows) == len(reports)
        first = rows[0]
        assert {"global_score", "outlierness", "support", "location"} <= set(first)

    def test_rows_carry_supporters(self, small_plant):
        reports = HierarchicalDetectionPipeline(small_plant).run()
        rows = reports_to_rows(reports)
        supported = [
            (report, row) for report, row in zip(reports, rows)
            if report.supporters
        ]
        for report, row in supported:
            assert row["supporters"] == list(report.supporters)

    def test_json_round_trip(self, small_plant, tmp_path):
        reports = HierarchicalDetectionPipeline(small_plant).run()
        path = tmp_path / "reports.json"
        payload = reports_to_json(reports, path)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(payload)
        assert len(on_disk["reports"]) == len(reports)

    def test_empty_reports(self):
        assert json.loads(reports_to_json([])) == {"reports": []}
