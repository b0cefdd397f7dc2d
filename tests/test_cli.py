"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "adaqp" in out and "reddit" in out


def test_info_reports_host_and_transport_resolution(capsys):
    """Satellite (ISSUE 5): auto-selection decisions are debuggable from
    the CLI — core count, spare-core verdict, resolved transport."""
    from repro.comm.transport import detected_cores, host_spare_cores

    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert f"{detected_cores()} core(s) detected" in out
    spare = host_spare_cores()
    verdict = "yes" if spare else "no"
    assert f"spare core for transport workers: {verdict}" in out
    assert "transport=auto" in out
    if spare:
        assert f"resolve to 'worker:{spare}'" in out
        assert f"worker transport with {spare} worker(s)" in out
    else:
        assert "synchronous transport (no spare core)" in out


def test_a_run_says_which_quant_kernel_it_used(capsys, caplog, tiny_dataset, tiny_book):
    """``repro info``, ``repro train``'s summary and the cluster's open-time
    log line all carry the loader's one status line: the tier and why."""
    import logging

    from repro import kernels
    from repro.cluster.cluster import Cluster

    line = f"kernels: {kernels.status()}"
    assert kernels.status().startswith(("native (", "numpy ("))
    assert main(["info"]) == 0
    assert line in capsys.readouterr().out
    code = main(
        ["train", "--system", "adaqp-fixed", "--dataset", "yelp", "--setting", "2M-1D",
         "--epochs", "1", "--hidden", "8"]
    )
    assert code == 0
    assert line in capsys.readouterr().out
    with caplog.at_level(logging.INFO, logger="repro"):
        Cluster(tiny_dataset, tiny_book, hidden_dim=8, dropout=0.0).close()
    records = [r for r in caplog.records if r.getMessage() == line]
    assert len(records) == 1 and records[0].levelno == logging.INFO


def test_train_transport_and_rng_flags(capsys):
    code = main(
        [
            "train", "--system", "adaqp-fixed", "--dataset", "yelp",
            "--setting", "2M-2D", "--epochs", "2", "--hidden", "8",
            "--transport", "worker:2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "halo bytes in flight during central windows" in out
    # The PR-6 legacy knobs are gone, not silently ignored.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--transport-workers", "2"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--no-async-transport"])
    # Which systems overlap is OVERLAP_SYSTEMS's to say, not a flag's.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["train", "--no-overlap"])
    assert exit_info.value.code == 2


def test_partition_command(capsys):
    assert main(["partition", "--dataset", "yelp", "--parts", "2"]) == 0
    out = capsys.readouterr().out
    assert "edge cut" in out
    assert "remote-neighbor ratio" in out


def test_train_command_small(capsys):
    code = main(
        [
            "train", "--system", "vanilla", "--dataset", "yelp",
            "--setting", "2M-1D", "--epochs", "2", "--hidden", "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out


def test_train_adaqp_prints_bits(capsys):
    code = main(
        [
            "train", "--system", "adaqp", "--dataset", "yelp",
            "--setting", "2M-1D", "--epochs", "3", "--hidden", "8",
            "--period", "2",
        ]
    )
    assert code == 0
    assert "bit-width histogram" in capsys.readouterr().out


def test_train_checkpoint_kill_resume_smoke(capsys, tmp_path):
    """Checkpoint a short run, 'kill' it (stop at an epoch boundary),
    resume with a fault injected — final losses match a clean
    uninterrupted run bitwise, and the run prints its own fault counters."""
    base = [
        "train", "--system", "adaqp-fixed", "--dataset", "yelp",
        "--setting", "2M-2D", "--hidden", "8", "--transport", "sync",
    ]
    assert main(base + ["--epochs", "4"]) == 0
    clean_out = capsys.readouterr().out
    clean_final = [
        line for line in clean_out.splitlines() if "final val accuracy" in line
    ]

    ck = str(tmp_path / "ck")
    assert main(base + ["--epochs", "2", "--checkpoint-dir", ck]) == 0
    capsys.readouterr()
    code = main(
        base
        + [
            "--epochs", "4", "--checkpoint-dir", ck, "--resume",
            "--inject-fault", "drop:fwd/L1@2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "resumed from checkpoint at epoch 2" in out
    assert "fault counters" in out and "replays" in out
    # The interrupted + resumed + faulted run ends where the clean one did.
    assert clean_final and all(line in out for line in clean_final)


def test_train_warns_about_faults_that_never_fired(capsys):
    """A fault plan whose faults never fire proves nothing: a tag no step
    has (layer 9 of a 3-layer model) ends the run with a warning naming
    the fault, not a clean, silent exit."""
    code = main(
        [
            "train", "--system", "adaqp-fixed", "--dataset", "yelp",
            "--setting", "2M-2D", "--epochs", "1", "--hidden", "8",
            "--transport", "sync", "--inject-fault", "drop:fwd/L9@0",
            "--inject-fault", "duplicate:fwd/L0@0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "fault counters" in captured.out  # the duplicate did fire
    warnings = [line for line in captured.err.splitlines() if "warning" in line]
    assert warnings == [
        "warning: 1 injected fault(s) did not fire as specified: drop:fwd/L9@0"
    ]


def test_train_fault_flag_validation(capsys):
    assert main(["train", "--inject-fault", "meteor:x"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err
    # Removed names fail at parse, listing what exists.
    for removed in ("kill_worker:*", "poison:fwd/L0"):
        assert main(["train", "--inject-fault", removed]) == 2
        assert "'drop', 'duplicate', 'stall', 'error'" in capsys.readouterr().err
    for removed in ("process", "process:2", "auto:2"):
        assert main(["train", "--transport", removed]) == 2
        assert "expected one of: auto, sync, worker" in capsys.readouterr().err
    assert main(["train", "--resume"]) == 2
    assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


def test_experiment_command(capsys):
    assert main(["experiment", "table3"]) == 0
    assert "Table 3" in capsys.readouterr().out


def test_invalid_choices_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["train", "--system", "warp-drive"])
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "table99"])
    with pytest.raises(SystemExit):
        parser.parse_args([])
