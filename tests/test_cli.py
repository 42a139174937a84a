"""Command line behaviour: outputs, files, exit codes, interactivity."""

import hashlib
import io
import subprocess
import sys

import numpy as np
import pytest

from hrcsched import desk_fixture, init_params, save_checkpoint, serialize_jobspec
from hrcsched.cli import main

from conftest import TINY_TEXT

# strict play must wait for the running predecessor, literal play may not
STACK_TEXT = """\
board 1 2
agents 1 1
task A H 3 0 0
task B R 3 0 1
"""


@pytest.fixture()
def tiny_path(tmp_path):
    path = tmp_path / "tiny.job"
    path.write_text(TINY_TEXT)
    return str(path)


@pytest.fixture()
def stack_path(tmp_path):
    path = tmp_path / "stack.job"
    path.write_text(STACK_TEXT)
    return str(path)


def run_cli(argv):
    return main(argv)


def test_solve_writes_schedule_and_log(tiny_path, tmp_path, capsys):
    out = tmp_path / "solve"
    code = run_cli(
        ["solve", "--jobspec", tiny_path, "--out", str(out),
         "--simulations", "500", "--max-depth", "0"]
    )
    assert code == 0
    assert capsys.readouterr().out == "makespan 7\n"
    schedule = (out / "schedule.csv").read_text()
    log = (out / "episode_log.csv").read_text()
    assert schedule.splitlines()[0] == "agent,task,start,end"
    assert log.splitlines()[0] == "epoch,clock,agent,action,reward"
    # the rewards recorded in the log add up to the printed makespan
    rewards = [int(line.rsplit(",", 1)[1]) for line in log.splitlines()[1:]]
    assert sum(rewards) == -7


def test_solve_finds_optimum_at_low_exploration(tiny_path, tmp_path, capsys):
    code = run_cli(
        ["solve", "--jobspec", tiny_path, "--out", str(tmp_path / "s"),
         "--simulations", "1000", "--max-depth", "0", "--c-puct", "10"]
    )
    assert code == 0
    assert capsys.readouterr().out == "makespan 6\n"


def test_solve_is_byte_deterministic(tiny_path, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["solve", "--jobspec", tiny_path, "--out", str(out)]) == 0
        outs.append(
            ((out / "schedule.csv").read_bytes(), (out / "episode_log.csv").read_bytes())
        )
    capsys.readouterr()
    assert outs[0] == outs[1]


# makespan and SHA-256 of schedule.csv and of episode_log.csv of ``solve``
# on the desk job at 40 simulations and unlimited depth, per seed. A change
# to the search, to the episode driver or to the network's arithmetic that
# moves a schedule or a logged decision shows up here.
DESK_SOLVES = {
    0: (
        149,
        "b05b95b39431b7f00f1ccaf0dda8a20b33975fe8a9196c487d2ae29f38c973ae",
        "30b14dcf2b6a7647d9a1ec821d859e21b191a09631252b7d531a27174cbfb955",
    ),
    1: (
        187,
        "bc4b7113f7f5fa9ddff0d60dce80a59b67a6964f02ec0986c8dfcf497f5a2b13",
        "af0986239a07992da55c2b0ef8da65a04784bbe1015e94d0d175854786846ada",
    ),
    2: (
        181,
        "bc7d8b7d147e16f6bcef7ea3dd2682f0822fb209afbc15242462e9ce42868ccb",
        "e921242a63e4305bd9c5ec46d02296bbdf2218e31e41af5393656026f0743092",
    ),
}


@pytest.mark.parametrize("seed", sorted(DESK_SOLVES))
def test_desk_solve_schedules_are_pinned(seed, tmp_path, capsys):
    job = tmp_path / "desk.job"
    job.write_text(serialize_jobspec(desk_fixture()))
    out = tmp_path / "solve"
    argv = ["solve", "--jobspec", str(job), "--out", str(out), "--simulations", "40",
            "--max-depth", "0", "--seed", str(seed)]
    assert run_cli(argv) == 0
    makespan, schedule_digest, log_digest = DESK_SOLVES[seed]
    assert capsys.readouterr().out == f"makespan {makespan}\n"
    assert hashlib.sha256((out / "schedule.csv").read_bytes()).hexdigest() == schedule_digest
    assert hashlib.sha256((out / "episode_log.csv").read_bytes()).hexdigest() == log_digest


def test_oracle_complete_output(tiny_path, tmp_path, capsys):
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--jobspec", tiny_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "optimal makespan 6\ncomplete routes 8\nnodes visited 136\n"
    )
    assert (out / "oracle_report.csv").read_text() == (
        "depth,routes,nodes\n0,1,1\n1,3,3\n2,4,5\n3,7,7\n4,7,10\n5,8,9\n6,6,11\n"
    )


def test_oracle_budget_exceeded_output(tiny_path, tmp_path, capsys):
    out = tmp_path / "oracle"
    assert run_cli(
        ["oracle", "--jobspec", tiny_path, "--out", str(out), "--node-budget", "5"]
    ) == 0
    assert capsys.readouterr().out == (
        "node budget exhausted after 5 nodes\ndeepest fully counted depth 1\n"
    )
    assert (out / "oracle_report.csv").read_text() == "depth,routes,nodes\n0,1,1\n1,3,3\n"


def test_gravity_mode_changes_the_optimum(stack_path, tmp_path, capsys):
    assert run_cli(["oracle", "--jobspec", stack_path, "--out", str(tmp_path / "s")]) == 0
    strict_out = capsys.readouterr().out
    assert strict_out.splitlines()[0] == "optimal makespan 6"
    assert run_cli(
        ["oracle", "--jobspec", stack_path, "--out", str(tmp_path / "l"),
         "--literal-gravity"]
    ) == 0
    literal_out = capsys.readouterr().out
    assert literal_out.splitlines()[0] == "optimal makespan 3"


def test_baseline_output(tiny_path, tmp_path, capsys):
    out = tmp_path / "base"
    code = run_cli(
        ["baseline", "--jobspec", tiny_path, "--out", str(out),
         "--trajectories", "300", "--seed", "1"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "trajectories 300\nmean makespan 7.92667\nmin makespan 7\n"
    )
    assert (out / "histogram.csv").read_text() == "makespan,count\n7,161\n9,139\n"


def test_desk_baseline_histogram_is_pinned(tmp_path, capsys):
    # 200 random desk episodes walk every layer of the game core: legal
    # picks, gravity on a 50-stone board and epoch closing
    job = tmp_path / "desk.job"
    job.write_text(serialize_jobspec(desk_fixture()))
    out = tmp_path / "base"
    argv = ["baseline", "--jobspec", str(job), "--out", str(out), "--trajectories", "200",
            "--seed", "0"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == (
        "trajectories 200\nmean makespan 176.89\nmin makespan 158\n"
    )
    assert hashlib.sha256((out / "histogram.csv").read_bytes()).hexdigest() == (
        "ae28a693f22bcc0dc88b92639cd6f06f5bcd96dc33c866152d0786adaf8a215e"
    )


def test_seed_env_used_when_flag_absent(tiny_path, tmp_path, capsys, monkeypatch):
    out_flag = tmp_path / "flag"
    assert run_cli(
        ["baseline", "--jobspec", tiny_path, "--out", str(out_flag),
         "--trajectories", "40", "--seed", "7"]
    ) == 0
    monkeypatch.setenv("HRC_SEED", "7")
    out_env = tmp_path / "env"
    assert run_cli(
        ["baseline", "--jobspec", tiny_path, "--out", str(out_env),
         "--trajectories", "40"]
    ) == 0
    capsys.readouterr()
    assert (out_flag / "histogram.csv").read_bytes() == (out_env / "histogram.csv").read_bytes()


def test_bad_seed_env_is_a_usage_error(tiny_path, tmp_path, capsys, monkeypatch):
    # (HRC_SEED, command line, what the message names); numpy refuses negative seeds
    cases = [
        ("seven", ["baseline"], "HRC_SEED"),
        ("-2", ["baseline"], "HRC_SEED"),
        ("0", ["solve", "--seed", "-1"], "--seed"),
        ("0", ["baseline", "--seed", "-3"], "--seed"),
    ]
    for env, argv, named in cases:
        monkeypatch.setenv("HRC_SEED", env)
        code = run_cli(argv + ["--jobspec", tiny_path, "--out", str(tmp_path / "x")])
        assert code == 2, (env, argv)
        assert named in capsys.readouterr().err


def test_missing_jobspec_exits_3(tmp_path, capsys):
    code = run_cli(["solve", "--jobspec", str(tmp_path / "absent.job")])
    assert code == 3
    assert "cannot read jobspec" in capsys.readouterr().err


def test_invalid_jobspec_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.job"
    path.write_text("agents 1 1\n")
    code = run_cli(["solve", "--jobspec", str(path)])
    assert code == 3
    assert "invalid jobspec" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "baseline", "oracle"])
def test_job_without_a_row_0_stone_exits_3(command, tmp_path, capsys):
    path = tmp_path / "floating.job"
    path.write_text("board 2 3\nagents 1 1\ntask a E 1 0 1\n")
    code = run_cli([command, "--jobspec", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "invalid jobspec: no task on row 0" in capsys.readouterr().err


def test_garbage_checkpoint_exits_4(tiny_path, tmp_path, capsys):
    ckpt = tmp_path / "weights.txt"
    ckpt.write_text("not a checkpoint\n")
    code = run_cli(
        ["solve", "--jobspec", tiny_path, "--out", str(tmp_path / "o"),
         "--checkpoint", str(ckpt)]
    )
    assert code == 4
    assert "bad checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, code, message",
    [("--jobspec", 3, "cannot read jobspec"), ("--checkpoint", 4, "cannot read checkpoint")],
)
def test_undecodable_file_exits_with_its_code(flag, code, message, tiny_path, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")  # 0xff never occurs in UTF-8
    # the later --jobspec replaces the tiny job
    argv = ["solve", "--jobspec", tiny_path, "--out", str(tmp_path / "o"), flag, str(bad)]
    assert run_cli(argv) == code
    assert message in capsys.readouterr().err


def test_jobspec_with_a_byte_order_mark_is_read(tiny_path, tmp_path, capsys):
    marked = tmp_path / "marked.job"
    marked.write_bytes(b"\xef\xbb\xbf" + TINY_TEXT.encode())  # as Windows editors save it
    schedules = []
    for name, path in (("plain", tiny_path), ("marked", str(marked))):
        assert run_cli(["solve", "--jobspec", path, "--out", str(tmp_path / name)]) == 0
        schedules.append((tmp_path / name / "schedule.csv").read_bytes())
    assert schedules[0] == schedules[1]


def test_non_finite_checkpoint_exits_4(tmp_path, capsys):
    desk = desk_fixture()
    job = tmp_path / "desk.job"
    job.write_text(serialize_jobspec(desk))
    ckpt = tmp_path / "nan.txt"
    params = init_params(desk.height, desk.width)
    params["value_b"][:] = np.nan
    save_checkpoint(params, ckpt)
    code = run_cli(
        ["solve", "--jobspec", str(job), "--out", str(tmp_path / "o"),
         "--checkpoint", str(ckpt)]
    )
    assert code == 4
    assert "value_b" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mismatched_checkpoint_exits_4(tmp_path, capsys):
    spec_path = tmp_path / "wide.job"
    spec_path.write_text(
        "board 4 2\nagents 1 1\ntask a H 2 0 0\ntask b R 2 2 0\n"
    )
    ckpt = tmp_path / "small.txt"
    save_checkpoint(init_params(2, 2, filters=(4,), dense_units=8), ckpt)
    code = run_cli(
        ["solve", "--jobspec", str(spec_path), "--out", str(tmp_path / "o"),
         "--checkpoint", str(ckpt)]
    )
    assert code == 4
    assert "does not fit" in capsys.readouterr().err


def test_checkpoint_with_wrong_policy_width_exits_4(tmp_path, capsys):
    # the desk's net (15 high, 8 wide) flattens to the same size as a net
    # for 8 high and 15 wide, so only the policy head tells them apart
    spec_path = tmp_path / "turned.job"
    spec_path.write_text("board 15 8\nagents 1 1\ntask a H 2 0 0\ntask b R 2 9 0\n")
    ckpt = tmp_path / "desk.txt"
    save_checkpoint(init_params(15, 8), ckpt)
    code = run_cli(
        ["solve", "--jobspec", str(spec_path), "--out", str(tmp_path / "o"),
         "--checkpoint", str(ckpt)]
    )
    assert code == 4
    assert "does not fit" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv_extra",
    [
        ["--simulations", "0"],
        ["--max-depth", "-1"],
        ["--c-puct", "nan"],
        ["--c-puct", "inf"],
        ["--c-puct", "-5"],
    ],
)
def test_bad_search_settings_exit_2(tiny_path, tmp_path, capsys, argv_extra):
    code = run_cli(["solve", "--jobspec", tiny_path, "--out", str(tmp_path / "o")] + argv_extra)
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--simulations", "2"],
        ["oracle"],
        ["baseline", "--trajectories", "5"],
        ["train", "--iterations", "1", "--episodes", "1", "--simulations", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exits_1(tiny_path, tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    code = run_cli(argv + ["--jobspec", tiny_path, "--out", str(taken)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert taken.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize(
    "argv, work",
    [
        (["solve", "--simulations", "2"], "play"),
        (["oracle", "--node-budget", "2000000"], "exhaustive_search"),
        (["baseline", "--trajectories", "5"], "random_rollouts"),
    ],
    ids=["solve", "oracle", "baseline"],
)
def test_unwritable_out_exits_before_the_work(tiny_path, tmp_path, capsys, monkeypatch, argv, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(f"hrcsched.cli.{work}", refuse)
    taken = tmp_path / "taken"
    taken.write_text("")
    code = run_cli(argv + ["--jobspec", tiny_path, "--out", str(taken / "sub")])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


def test_train_rejects_checkpoint_and_bad_counts(tiny_path, tmp_path, capsys):
    ckpt = tmp_path / "w.txt"
    save_checkpoint(init_params(2, 2, filters=(4,), dense_units=8), ckpt)
    assert run_cli(
        ["train", "--jobspec", tiny_path, "--out", str(tmp_path / "t"),
         "--checkpoint", str(ckpt)]
    ) == 2
    assert run_cli(
        ["train", "--jobspec", tiny_path, "--out", str(tmp_path / "t"),
         "--iterations", "0"]
    ) == 2
    assert run_cli(
        ["baseline", "--jobspec", tiny_path, "--out", str(tmp_path / "b"),
         "--trajectories", "0"]
    ) == 2
    assert run_cli(
        ["oracle", "--jobspec", tiny_path, "--out", str(tmp_path / "x"),
         "--node-budget", "0"]
    ) == 2
    capsys.readouterr()


def test_train_writes_log_and_checkpoints(tiny_path, tmp_path, capsys):
    out = tmp_path / "train"
    code = run_cli(
        ["train", "--jobspec", tiny_path, "--out", str(out),
         "--iterations", "2", "--episodes", "2", "--simulations", "10"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert text.splitlines()[-1].startswith("best makespan ")
    assert sum(1 for line in text.splitlines() if line.startswith("iteration ")) == 2
    log = (out / "training_log.csv").read_text()
    assert log.splitlines()[0] == (
        "iteration,episodes,mean_makespan,best_makespan,policy_loss,value_loss"
    )
    assert len(log.splitlines()) == 3
    for name in ("checkpoint_000.txt", "checkpoint_001.txt", "checkpoint_final.txt"):
        assert (out / name).exists()
    # the final checkpoint drives solve
    code = run_cli(
        ["solve", "--jobspec", tiny_path, "--out", str(tmp_path / "s"),
         "--checkpoint", str(out / "checkpoint_final.txt")]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("makespan ")


def test_train_is_byte_deterministic(tiny_path, tmp_path, capsys):
    blobs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert run_cli(
            ["train", "--jobspec", tiny_path, "--out", str(out),
             "--iterations", "2", "--episodes", "2", "--simulations", "10",
             "--seed", "3"]
        ) == 0
        blobs.append(
            ((out / "training_log.csv").read_bytes(),
             (out / "checkpoint_final.txt").read_bytes())
        )
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_desk_training_log_is_pinned(tmp_path, capsys):
    # two iterations of two self-play episodes cover example building, the
    # replay buffer and SGD; losses are printed to six significant digits,
    # so the low bits a BLAS library may move do not show
    job = tmp_path / "desk.job"
    job.write_text(serialize_jobspec(desk_fixture()))
    out = tmp_path / "train"
    argv = ["train", "--jobspec", str(job), "--out", str(out), "--iterations", "2",
            "--episodes", "2", "--seed", "0"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert (out / "training_log.csv").read_text() == (
        "iteration,episodes,mean_makespan,best_makespan,policy_loss,value_loss\n"
        "0,2,157.5,157,6.59263,8151.12\n"
        "1,2,157,157,4.07308,482.997\n"
    )


def advise_session(tiny_path, tmp_path, capsys, monkeypatch, script, extra=()):
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    out = tmp_path / "advise"
    code = run_cli(["advise", "--jobspec", tiny_path, "--out", str(out)] + list(extra))
    return code, capsys.readouterr().out, out


def test_advise_full_session(tiny_path, tmp_path, capsys, monkeypatch):
    code, text, out = advise_session(
        tiny_path, tmp_path, capsys, monkeypatch, "pick A\nwait\nwait\n"
    )
    assert code == 0
    assert text == (
        "\nR.\nHE\nclock 0\nH1 may pick: A, C\nH1> "
        "R1 starts C\nclock advances to 2\n"
        "\n..\nR.\nclock 2\nR1 is working on C, 2 left\nH1 may pick: nothing\nH1> "
        "clock advances to 4\n"
        "\n..\nR.\nclock 4\nH1 may pick: nothing\nH1> "
        "R1 starts B\nclock advances to 7\n"
        "makespan 7\n"
    )
    schedule = (out / "schedule.csv").read_text()
    assert schedule == "agent,task,start,end\nH1,A,0,2\nR1,C,0,4\nR1,B,4,7\n"


def test_advise_rejects_bad_input_then_recovers(tiny_path, tmp_path, capsys, monkeypatch):
    # B is buried at clock 0 and robot-only once exposed at clock 2
    script = "frobnicate\npick B\npick Z\nboard\npick A\npick B\nwait\nwait\n"
    code, text, _ = advise_session(tiny_path, tmp_path, capsys, monkeypatch, script)
    assert code == 0
    assert "commands: pick <task>, wait, board, quit" in text
    assert "cannot pick B: not on the bottom row yet" in text
    assert "cannot pick Z: no such task" in text
    assert "cannot pick B: only a robot can do it" in text
    assert "makespan 7" in text


def test_advise_names_the_unfinished_predecessor(tmp_path, capsys, monkeypatch):
    # B falls into the bottom row once H1 takes A, but A is still running
    path = tmp_path / "pair.job"
    path.write_text("board 2 2\nagents 2 0\ntask A H 3 0 0\ntask B H 1 0 1\ntask C H 5 1 0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("pick A\npick B\nquit\n"))
    code = run_cli(["advise", "--jobspec", str(path), "--out", str(tmp_path / "a")])
    assert code == 0
    assert "H2> cannot pick B: waiting on A\n" in capsys.readouterr().out


def test_advise_names_picked_and_done_tasks(tmp_path, capsys, monkeypatch):
    # H1 takes x, so x has left the board when H2 asks for it; x finishes
    # at clock 1 and then reads as done
    path = tmp_path / "row.job"
    path.write_text("board 3 1\nagents 2 0\ntask x E 1 0 0\ntask y E 2 1 0\ntask z E 1 2 0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("pick x\npick x\npick y\npick x\nquit\n"))
    code = run_cli(["advise", "--jobspec", str(path), "--out", str(tmp_path / "a")])
    text = capsys.readouterr().out
    assert code == 0
    assert "H2> cannot pick x: already being worked on\n" in text
    assert "clock 1\n" in text
    assert "H1> cannot pick x: already done\n" in text


def test_advise_quit_writes_partial_schedule(tiny_path, tmp_path, capsys, monkeypatch):
    code, text, out = advise_session(tiny_path, tmp_path, capsys, monkeypatch, "quit\n")
    assert code == 0
    assert text == "\nR.\nHE\nclock 0\nH1 may pick: A, C\nH1> stopped at clock 0\n"
    assert (out / "schedule.csv").read_text() == "agent,task,start,end\n"


def test_advise_checks_out_before_the_first_prompt(tiny_path, tmp_path, capsys, monkeypatch):
    taken = tmp_path / "afile"
    taken.write_text("")
    monkeypatch.setattr("sys.stdin", io.StringIO("pick A\nwait\n"))
    code = run_cli(["advise", "--jobspec", tiny_path, "--out", str(taken)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "cannot write" in captured.err


def test_advise_eof_quits(tiny_path, tmp_path, capsys, monkeypatch):
    code, text, _ = advise_session(tiny_path, tmp_path, capsys, monkeypatch, "")
    assert code == 0
    assert "stopped at clock 0" in text


def test_advise_refuses_stalling_wait(tmp_path, capsys, monkeypatch):
    path = tmp_path / "solo.job"
    path.write_text("board 1 1\nagents 1 0\ntask z H 1 0 0\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("wait\npick z\n"))
    out = tmp_path / "a"
    code = run_cli(["advise", "--jobspec", str(path), "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "waiting now would leave every agent idle; pick a task" in text
    assert "makespan 1" in text


def test_advise_refuses_wait_that_leaves_no_pick(tiny_path, tmp_path, capsys, monkeypatch):
    # at clock 4 the robot is yet to act but holds no pick, so the human's
    # second wait is refused rather than stalling the robot's forced wait
    code, text, out = advise_session(
        tiny_path, tmp_path, capsys, monkeypatch, "wait\nwait\npick A\nwait\n"
    )
    assert code == 0
    assert "H1> waiting now would leave every agent idle; pick a task\n" in text
    assert text.endswith("makespan 9\n")
    assert (out / "schedule.csv").read_text() == (
        "agent,task,start,end\nH1,A,4,6\nR1,C,0,4\nR1,B,6,9\n"
    )


def test_module_entry_point(tiny_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hrcsched.cli", "solve", "--jobspec", tiny_path,
         "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("makespan ")
