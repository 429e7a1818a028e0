"""Generated docs are derived artifacts: drift fails here and in CI.

``docs/cli.md`` comes from the argparse trees, ``docs/predictors.md``
from the live predictor registry; ``repro.docs.check_docstrings`` gates
the public engine/predictor API.  All three are also enforced by the
``python -m repro.docs --check`` CI step.
"""

import sys
import types
from pathlib import Path

import pytest

from repro import docs
from repro.engine.job import PREDICTOR_NAMES

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestGenerated:
    @pytest.mark.parametrize("page", sorted(docs.PAGES))
    def test_checked_in_page_is_up_to_date(self, page):
        """`python -m repro.docs` output must match the checked-in files."""
        on_disk = (REPO_ROOT / "docs" / page).read_text()
        assert on_disk == docs.PAGES[page](), (
            f"docs/{page} drifted from the code; regenerate with "
            "`PYTHONPATH=src python -m repro.docs`"
        )

    def test_check_mode_passes_on_fresh_output(self, tmp_path, capsys):
        assert docs.main(["--output-dir", str(tmp_path)]) == 0
        assert docs.main(["--check", "--output-dir", str(tmp_path)]) == 0

    def test_check_mode_fails_on_drift(self, tmp_path, capsys):
        assert docs.main(["--output-dir", str(tmp_path)]) == 0
        (tmp_path / "cli.md").write_text("# stale\n")
        assert docs.main(["--check", "--output-dir", str(tmp_path)]) == 1

    def test_check_mode_fails_on_missing_page(self, tmp_path, capsys):
        assert docs.main(["--output-dir", str(tmp_path)]) == 0
        (tmp_path / "predictors.md").unlink()
        assert docs.main(["--check", "--output-dir", str(tmp_path)]) == 1


class TestCliCoverage:
    def test_reference_covers_every_subcommand(self):
        rendered = docs.generate_cli()
        for heading in (
            "## `repro`",
            "### `repro run`",
            "### `repro table`",
            "### `repro figure`",
            "### `repro campaign`",
            "#### `repro campaign run`",
            "#### `repro campaign status`",
            "#### `repro campaign list`",
            "#### `repro cluster serve`",
            "#### `repro cluster run`",
            "#### `repro cluster status`",
            "#### `repro chaos show`",
            "### `repro cache`",
            "### `repro list`",
            "## `python -m repro.experiments.reproduce`",
        ):
            assert heading in rendered, heading

    def test_reference_mentions_the_knobs(self):
        rendered = docs.generate_cli()
        for token in ("REPRO_JOBS", "REPRO_CACHE_DIR",
                      "REPRO_CLUSTER_SHARDS", "--cache-dir",
                      "--render", "--backend", "--shards", "--work-dir",
                      "--token"):
            assert token in rendered, token

    def test_no_option_row_states_its_default_twice(self):
        rows = [line for line in docs.generate_cli().splitlines()
                if line.startswith("| `")]
        assert rows
        for row in rows:
            assert row.count("default:") <= 1, row


class TestPredictorCoverage:
    def test_reference_covers_every_registered_name(self):
        rendered = docs.generate_predictors()
        for name in PREDICTOR_NAMES:
            assert f"## `{name}`" in rendered, name

    def test_reference_reads_live_instances(self):
        rendered = docs.generate_predictors()
        assert "`repro.core.vtage.VTAGEPredictor`" in rendered
        assert "hybrid[" in rendered


class TestDocstringGate:
    def test_engine_and_predictors_are_fully_documented(self):
        missing = docs.check_docstrings()
        assert missing == [], (
            "public definitions missing docstrings (the CI gate will "
            f"fail): {missing}"
        )

    def test_gate_actually_detects_gaps(self):
        # Sanity-check the walker against a module guaranteed to contain
        # an undocumented public function.
        module = types.ModuleType("repro_docs_gate_probe")
        exec("def undocumented(): pass", module.__dict__)
        sys.modules["repro_docs_gate_probe"] = module
        try:
            missing = docs.check_docstrings(("repro_docs_gate_probe",))
        finally:
            del sys.modules["repro_docs_gate_probe"]
        assert missing == ["repro_docs_gate_probe.undocumented"]
