"""Command-line interface."""

import pytest

from repro.cli import main

HELLO = """
class Main {
    static void main(String[] args) {
        System.println("hello " + args.length);
    }
}
"""

BROKEN = "class Main { static void main(String[] args) { int x = ; } }"


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.java"
    path.write_text(HELLO)
    return str(path)


def test_run_prints_program_output(hello_file, capsys):
    assert main(["run", hello_file]) == 0
    out = capsys.readouterr().out
    assert out == "hello 0\n"


def test_run_passes_args(hello_file, capsys):
    assert main(["run", hello_file, "--args", "a", "b"]) == 0
    assert capsys.readouterr().out == "hello 2\n"


def test_run_stats_go_to_stderr(hello_file, capsys):
    main(["run", hello_file, "--stats"])
    err = capsys.readouterr().err
    assert "instructions=" in err


def test_run_uncaught_exception_sets_exit_code(tmp_path, capsys):
    path = tmp_path / "boom.java"
    path.write_text("""
        class Main {
            static void main(String[] args) {
                throw new RuntimeException("boom");
            }
        }
    """)
    assert main(["run", str(path)]) == 1
    assert "RuntimeException: boom" in capsys.readouterr().err


def test_compile_error_reported(tmp_path, capsys):
    path = tmp_path / "bad.java"
    path.write_text(BROKEN)
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_reported(capsys):
    assert main(["run", "/nonexistent/x.java"]) == 2


def test_replicate_with_crash(hello_file, capsys):
    assert main(["replicate", hello_file, "--crash-at", "2",
                 "--strategy", "thread_sched"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "hello 0\n"           # exactly once
    assert "failover_completed" in captured.err


def test_replicate_without_crash(hello_file, capsys):
    assert main(["replicate", hello_file]) == 0
    assert "primary_completed" in capsys.readouterr().err


def test_disasm_lists_methods(hello_file, capsys):
    assert main(["disasm", hello_file]) == 0
    out = capsys.readouterr().out
    assert "--- Main.main/1" in out
    assert "invokestatic System.println/1/0" in out


def test_disasm_filters_by_method(tmp_path, capsys):
    path = tmp_path / "two.java"
    path.write_text("""
        class Main {
            static void main(String[] args) { helper(); }
            static void helper() { }
        }
    """)
    assert main(["disasm", str(path), "--method", "Main.helper/0"]) == 0
    out = capsys.readouterr().out
    assert "Main.helper/0" in out
    assert "Main.main/1" not in out


def test_workloads_lists_all_six(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("jess", "jack", "compress", "db", "mpegaudio", "mtrt"):
        assert name in out


def test_bench_single_experiment(capsys):
    from repro.harness.runner import clear_cache
    clear_cache()
    assert main(["bench", "--profile", "test",
                 "--experiment", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Locks Acquired" in out


def test_fleet_reports_counts_and_takes_no_arrival_rate(capsys):
    assert main(["fleet", "--shards", "2", "--requests", "30"]) == 0
    err = capsys.readouterr().err
    assert "committed=30" in err and "exactly_once=True" in err
    assert "latency" not in err
    # The fleet keeps no clock, so an arrival rate would change nothing:
    # the flag is rejected, not ignored.
    with pytest.raises(SystemExit):
        main(["fleet", "--qps", "300", "--requests", "30"])
    assert "unrecognized arguments: --qps" in capsys.readouterr().err


@pytest.mark.parametrize("mode, flags", [
    ("byzantine", ["--engine", "both"]),
    ("byzantine", ["--strategy", "lock_sync"]),
    ("byzantine", ["--transport", "faulty:lossy"]),
    ("byzantine", ["--depth", "2"]),
    ("byzantine", ["--checkpoint-interval", "3"]),
    ("chained", ["--digest-interval", "4"]),
    ("chained", ["--members", "5"]),
    ("chained", ["--variants"]),
    ("plain", ["--depth", "2"]),
    ("plain", ["--checkpoint-interval", "3"]),
    ("plain", ["--members", "5"]),
    ("plain", ["--variants"]),
])
def test_conform_rejects_flags_its_mode_cannot_honour(mode, flags, capsys):
    """A flag that would change nothing in the chosen sweep is a usage
    error naming the mode, not a silently swept default."""
    argv = ["conform", "--workload", "hello"] + flags
    if mode != "plain":
        argv.append(f"--{mode}")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"the {mode} sweep" in capsys.readouterr().err


def test_conform_honours_workers_and_stride_in_every_mode(capsys):
    """``--workers``, ``--stride`` and ``--no-shrink`` belong to the one
    sweep loop, so every mode takes them."""
    for mode_flags in ([], ["--chained", "--depth", "1"], ["--byzantine"]):
        assert main(["conform", "--workload", "hello", "--quick",
                     "--workers", "2", "--stride", "3", "--no-shrink"]
                    + mode_flags) == 0
        assert "PASS" in capsys.readouterr().out
