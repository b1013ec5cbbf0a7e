"""Tests for repro.experiments.registry — the experiment id → spec mapping."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, run
from repro.experiments.registry import EXPERIMENTS, experiment_ids, get_experiment


class TestExperimentRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        ids = experiment_ids()
        for expected in ("table1", "table3", "table4", "figure4", "figure5", "figure6"):
            assert expected in ids

    def test_extensions_registered(self):
        ids = experiment_ids()
        for expected in ("ablation", "baselines", "runtime", "dynamics", "controller"):
            assert expected in ids

    def test_ids_sorted(self):
        assert experiment_ids() == sorted(experiment_ids())

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("TABLE1") is EXPERIMENTS["table1"]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_specs_are_complete(self):
        for spec in EXPERIMENTS.values():
            assert spec.description
            assert spec.paper_artifact
            assert callable(spec.execute)
            assert callable(spec.format)

    def test_spec_run_and_format_compose(self):
        spec = replace(
            get_experiment("figure5"),
            labels=("5s-15z-200c-100cp",),
            sweep=(0.5,),
            algorithms=("grez-virc",),
        )
        text = spec.format(run(spec, ExperimentConfig(num_runs=1, seed=0)))
        assert "Figure 5" in text
