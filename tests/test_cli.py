import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import FixtureRegistryBuilder, build_training_vectors, make_tgz
from pkgwatch.classifiers import ocsvm
from pkgwatch.cli import cli, main, parse_spec
from pkgwatch.pipeline import CorpusStore, ModelStore, ScanReport, retrain


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    """Registry + trained models + stores, wired through CLI flags."""
    builder = FixtureRegistryBuilder(tmp_path / "registry")
    rng = np.random.default_rng(5)
    from conftest import _benign_module, _grow
    from test_features import EXFIL_SCRIPT

    base = _benign_module(rng)
    builder.add_version("plain", "1.0.0", published="2021-08-01T00:00:00Z",
                        files=base)
    builder.add_version("plain", "1.0.1", published="2021-08-05T00:00:00Z",
                        files=_grow(base, rng))
    builder.add_version("dropper", "2.0.0", published="2021-08-02T00:00:00Z",
                        files={"index.js": "module.exports = 1;",
                               "test.js": EXFIL_SCRIPT},
                        scripts={"postinstall": "node test.js"})

    corpus_path = tmp_path / "corpus.jsonl"
    corpus = CorpusStore(corpus_path)
    for vector in build_training_vectors(12, 24, seed=2):
        corpus.add_vector(vector)
    models, _ = retrain(corpus)
    models_dir = tmp_path / "models"
    ModelStore(models_dir).save(models, corpus.corpus_hash())

    return {
        "registry": str(builder.root),
        "models": str(models_dir),
        "corpus": str(corpus_path),
        "hashes": str(tmp_path / "hashes.txt"),
        "tmp": tmp_path,
    }


def base_args(ws):
    return [
        "--registry", ws["registry"],
        "--models", ws["models"],
        "--corpus", ws["corpus"],
        "--hashes", ws["hashes"],
    ]


def test_parse_spec():
    assert parse_spec("lodash@4.17.21") == ("lodash", "4.17.21")
    assert parse_spec("@scope/pkg@1.0.0") == ("@scope/pkg", "1.0.0")
    with pytest.raises(Exception):
        parse_spec("no-version")


def test_extract_from_tarball(runner, tmp_path):
    tarball = tmp_path / "p.tgz"
    tarball.write_bytes(make_tgz(files={"index.js": 'require("https");'},
                                 scripts={"postinstall": "node x"}))
    result = runner.invoke(cli, ["extract", "--tarball", str(tarball)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["network_access"] == 1.0
    assert doc["install_scripts"] == 1.0


def test_scan_clean_exit_zero(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + [
        "scan", "plain@1.0.1", "--no-reproduce",
    ])
    assert result.exit_code == 0, result.output
    assert "clean" in result.output


def test_scan_flagged_exit_one(runner, workspace):
    out = workspace["tmp"] / "report.jsonl"
    result = runner.invoke(cli, base_args(workspace) + [
        "scan", "dropper@2.0.0", "plain@1.0.1",
        "--no-reproduce", "--out", str(out),
    ])
    assert result.exit_code == 1, result.output
    assert out.exists()
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[-1]["summary"]["flagged"] == 1


def test_scan_window(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + [
        "scan", "--since", "2021-08-04T00:00:00Z",
        "--until", "2021-08-06T00:00:00Z", "--no-reproduce",
    ])
    assert result.exit_code == 0, result.output
    assert "plain@1.0.1" in result.output
    assert "dropper" not in result.output


def test_scan_records_vectors_for_triage(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + [
        "scan", "dropper@2.0.0", "--no-reproduce",
    ])
    assert result.exit_code == 1
    corpus = CorpusStore(workspace["corpus"])
    assert corpus.get("dropper", "2.0.0") is not None


def test_predict_exit_codes(runner, workspace):
    flagged = runner.invoke(cli, base_args(workspace) + ["predict", "dropper@2.0.0"])
    assert flagged.exit_code == 1, flagged.output
    clean = runner.invoke(cli, base_args(workspace) + ["predict", "plain@1.0.1"])
    assert clean.exit_code == 0, clean.output


def test_label_then_clone_check(runner, workspace):
    runner.invoke(cli, base_args(workspace) + [
        "scan", "dropper@2.0.0", "--no-reproduce",
    ])
    result = runner.invoke(cli, base_args(workspace) + [
        "label", "dropper", "2.0.0", "true-positive",
    ])
    assert result.exit_code == 0, result.output

    # A verbatim clone of the labeled package now matches by digest.
    clone = runner.invoke(cli, base_args(workspace) + [
        "clone-check", "dropper@2.0.0",
    ])
    assert clone.exit_code == 1
    assert "clone of dropper@2.0.0" in clone.output

    missing = runner.invoke(cli, base_args(workspace) + [
        "clone-check", "plain@1.0.1",
    ])
    assert missing.exit_code == 0
    assert "no clone match" in missing.output


def test_clone_check_digests_the_artifact_once(runner, workspace, monkeypatch):
    from pkgwatch import cli as cli_module, clones

    runner.invoke(cli, base_args(workspace) + ["scan", "dropper@2.0.0", "--no-reproduce"])
    runner.invoke(cli, base_args(workspace) + ["label", "dropper", "2.0.0", "true-positive"])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return digest(*args, **kwargs)

    digest = clones.canonical_digest
    monkeypatch.setattr(clones, "canonical_digest", counted)
    monkeypatch.setattr(cli_module, "canonical_digest", counted)
    result = runner.invoke(cli, base_args(workspace) + ["clone-check", "plain@1.0.1"])
    assert "no clone match (md5:" in result.output
    assert len(calls) == 1


def test_retrain_bumps_model_version(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + ["retrain"])
    assert result.exit_code == 0, result.output
    assert ModelStore(workspace["models"]).version() == 2


def test_retrain_without_convergence_exits_2_and_keeps_the_models(workspace, monkeypatch,
                                                                  capsys):
    models = Path(workspace["models"])
    before = {path.name: path.read_bytes() for path in models.iterdir()}
    monkeypatch.setattr(ocsvm, "MAX_ITER", 1)
    with pytest.raises(SystemExit) as exit_info:
        main(base_args(workspace) + ["retrain"])
    assert exit_info.value.code == 2
    assert "error: no convergence after 1 coordinate steps" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in models.iterdir()} == before


def test_train_command(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + ["train", "--nu", "0.01"])
    assert result.exit_code == 0, result.output


def test_cross_validate_command(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + [
        "--seed", "3", "cross-validate", "--k", "4",
    ])
    assert result.exit_code == 0, result.output
    assert "decision-tree: precision=" in result.output


def test_calibrate_nu_command(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + [
        "calibrate-nu", "--grid", "0.05,0.2", "--k", "4",
    ])
    assert result.exit_code == 0, result.output
    assert result.output.count("nu=") == 2


def test_report_command(runner, workspace):
    out = workspace["tmp"] / "r.jsonl"
    runner.invoke(cli, base_args(workspace) + [
        "scan", "dropper@2.0.0", "--no-reproduce", "--out", str(out),
    ])
    result = runner.invoke(cli, ["report", str(out)])
    assert result.exit_code == 0
    assert "1 flagged" in result.output


def test_hashes_export_import(runner, workspace, tmp_path):
    runner.invoke(cli, base_args(workspace) + [
        "scan", "dropper@2.0.0", "--no-reproduce",
    ])
    runner.invoke(cli, base_args(workspace) + [
        "label", "dropper", "2.0.0", "true-positive",
    ])
    exported = tmp_path / "exported.txt"
    result = runner.invoke(cli, base_args(workspace) + [
        "hashes", "export", str(exported),
    ])
    assert result.exit_code == 0, result.output
    assert "exported 1 digests" in result.output

    fresh = tmp_path / "fresh-hashes.txt"
    args = base_args(workspace)
    args[args.index(str(workspace["hashes"]))] = str(fresh)
    result = runner.invoke(cli, args + ["hashes", "import", str(exported)])
    assert result.exit_code == 0
    assert "imported 1 new digests" in result.output


def test_hashes_import_rejects_a_malformed_list(workspace, tmp_path, capsys):
    target = Path(workspace["hashes"])
    target.write_text("md5:" + "ab" * 16 + "\tkept\t1.0.0\t2021-08-01\n")
    before = target.read_bytes()
    incoming = tmp_path / "incoming.txt"
    incoming.write_text("md5:" + "cd" * 16 + "\tnew\t1.0.0\t2021-08-01\n"
                        "sha256:00ff\tbad\t1.0.0\t2021-08-01\n")
    with pytest.raises(SystemExit) as exit_info:
        main(base_args(workspace) + ["hashes", "import", str(incoming)])
    assert exit_info.value.code == 2
    assert f"{incoming}:2: unsupported digest algorithm: 'sha256'" in capsys.readouterr().err
    assert target.read_bytes() == before


def test_reproduce_command_no_repo(runner, workspace):
    result = runner.invoke(cli, base_args(workspace) + [
        "reproduce", "plain@1.0.1",
    ])
    assert result.exit_code == 0, result.output
    assert "nothing to rebuild" in result.output


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(runner, workspace, jobs):
    result = runner.invoke(cli, ["--jobs", jobs] + base_args(workspace) + [
        "scan", "plain@1.0.1", "--no-reproduce",
    ])
    assert result.exit_code == 2
    assert "--jobs" in result.output


def test_missing_registry_is_usage_error(runner):
    result = runner.invoke(cli, ["scan", "a@1.0.0"])
    assert result.exit_code != 0


@pytest.mark.parametrize("doc, reason", [
    ([], "must be a JSON object"),
    ({"pii_access": "password"}, "rules of 'pii_access' must be a list"),
    ({"pii_access": ["x"]}, "rule must be a JSON object"),
    ({"pii_access": [{"value": "password"}]}, "keys 'kind' and 'value'"),
    ({"pii_access": [{"kind": "call_of", "value": "x", "weight": 2}]},
     "keys 'kind' and 'value'"),
    ({"pii_access": [{"kind": "string_literal_containing", "value": 5}]},
     "rule value must be a non-empty string, got 5"),
    ({"pii_access": [{"kind": "call_of", "value": ""}]}, "non-empty string"),
    ({"pii_access": [{"kind": "call_of", "value": "x"}]}, "has no rules"),
], ids=["not-an-object", "rules-not-a-list", "rule-not-an-object", "missing-kind",
        "unknown-key", "value-not-a-string", "empty-value", "feature-without-rules"])
def test_malformed_pattern_table_exits_2(workspace, tmp_path, capsys, doc, reason):
    table = tmp_path / "rules.json"
    table.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_info:
        main(base_args(workspace) + ["--pattern-table", str(table),
                                     "scan", "plain@1.0.1", "--no-reproduce", "--no-record"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {table}: " in err and reason in err


@pytest.mark.parametrize("doc, reason", [
    (["npm pack"], "must be a JSON object"),
    ({"pack_cmd": "npm pack"}, "unknown key 'pack_cmd'"),
    ({"build_scripts": "build"}, "build_scripts must be a list of strings"),
    ({"build_scripts": ["build", 1]}, "build_scripts must be a list of strings"),
    ({"timeout": 0}, "timeout must be a positive number"),
    ({"timeout": "60"}, "timeout must be a positive number"),
    ({"timeout": True}, "timeout must be a positive number"),
    ({"install_command": ["npm", "install"]}, "install_command must be a string"),
    ({"script_command": "npm run {name}"}, "script_command must be a string that formats"),
    ({"script_command": "npm run {script"}, "script_command must be a string that formats"),
], ids=["not-an-object", "unknown-key", "scripts-a-string", "script-not-a-string",
        "zero-timeout", "string-timeout", "boolean-timeout", "command-a-list",
        "script-command-unknown-field", "script-command-unclosed-brace"])
def test_malformed_build_config_exits_2(workspace, tmp_path, capsys, doc, reason):
    config = tmp_path / "build.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exit_info:
        main(base_args(workspace) + ["scan", "plain@1.0.1", "--no-record",
                                     "--build-config", str(config)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and reason in err


def test_report_of_a_non_verdict_line_exits_2(workspace, capsys):
    report = workspace["tmp"] / "r.jsonl"
    report.write_text('{"summary": {}}\n{}\n')
    with pytest.raises(SystemExit) as exit_info:
        main(["report", str(report)])
    assert exit_info.value.code == 2
    assert f"error: {report}:2: missing field 'package'" in capsys.readouterr().err


@pytest.mark.parametrize("fields, reason", [
    ({"final": "bogus", "models": {"decision-tree": "malicious"}},
     "unknown final status 'bogus'"),
    ({"final": "clean", "models": {"decision-tree": "malicious"}},
     "final 'clean' differs from the fusion rule's 'flagged'"),
    ({"final": "clean", "models": {"nope": "maybe"}}, "unknown model 'nope'"),
    ({"final": "clean", "models": {"naive-bayes": "maybe"}},
     "model naive-bayes output 'maybe' is not malicious or benign"),
    ({"final": "flagged", "models": {"decision-tree": "malicious"}, "reproduce": "bogus"},
     "unknown reproduce status 'bogus'"),
    ({"final": "flagged", "models": {"decision-tree": "malicious"}, "triage": "whatever"},
     "triage 'whatever' is not true-positive or false-positive"),
], ids=["unknown-final", "hidden-flag", "unknown-model", "unknown-output",
        "unknown-reproduce", "unknown-triage"])
def test_report_of_a_record_the_fusion_rule_rejects_exits_2(workspace, capsys,
                                                             fields, reason):
    report = workspace["tmp"] / "r.jsonl"
    report.write_text(json.dumps({"package": "a", "version": "1.0.0", **fields}) + "\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["report", str(report)])
    assert exit_info.value.code == 2
    assert f"error: {report}:1: {reason}" in capsys.readouterr().err


def test_report_written_by_scan_reads_back(runner, workspace):
    out = workspace["tmp"] / "r.jsonl"
    result = runner.invoke(cli, base_args(workspace) + [
        "scan", "plain@1.0.1", "dropper@2.0.0", "--no-reproduce", "--out", str(out),
    ])
    assert result.exit_code == 1, result.output
    report = ScanReport.read(out)
    assert {v.final for v in report.verdicts} == {"clean", "flagged"}
    assert report.to_lines() == out.read_text().splitlines()


def test_unexpected_exception_exits_2_not_1(workspace, monkeypatch, capsys, caplog):
    def crash(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(ScanReport, "read", crash)
    report = str(workspace["tmp"] / "r.jsonl")
    with pytest.raises(SystemExit) as exit_info:
        main(["report", report])
    assert exit_info.value.code == 2
    assert "error: RuntimeError: boom" in capsys.readouterr().err
    assert "Traceback" not in caplog.text

    with pytest.raises(SystemExit) as exit_info:
        main(["-v", "report", report])
    assert exit_info.value.code == 2
    assert "Traceback" in caplog.text and "RuntimeError: boom" in caplog.text


def test_window_over_http_points_to_specs_or_batch(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--registry", "http://127.0.0.1:9", "scan",
              "--since", "2021-08-01T00:00:00Z", "--until", "2021-08-02T00:00:00Z"])
    assert exit_info.value.code == 2
    assert "name@version specs or --batch" in capsys.readouterr().err
