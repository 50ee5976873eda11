"""Command line behavior: exit codes 0 (positive), 1 (refusal), 2 (bad
input), 3 (internal fault)."""

import errno
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from platsurf import (
    MalformedDiagramError,
    build_topology,
    cli,
    count_allowable,
    diagram_to_json,
    make_diagram,
    random_diagram,
)
from platsurf.cli import main
from platsurf.diagram import from_json_dict

ALL_THREES = [[3, 3], [3, 3, 3], [3, 3]]


@pytest.fixture
def write_diagram(tmp_path):
    def _write(rows, n, m, name="d.json"):
        p = tmp_path / name
        p.write_text(diagram_to_json(make_diagram(n, m, rows)))
        return str(p)

    return _write


def test_mode_choices_name_the_certificate_modes():
    from platsurf import MODE_COMPOSITE, MODE_RELAXED, MODE_THEOREM1

    assert cli._MODES == {
        "theorem1": MODE_THEOREM1,
        "relaxed": MODE_RELAXED,
        "composite": MODE_COMPOSITE,
    }


def test_validate_pass_and_fail(write_diagram, capsys):
    good = write_diagram(ALL_THREES, 3, 3)
    assert main(["validate", good]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True

    bad = write_diagram([[2, 3], [3, 0, 3], [3, 3]], 3, 3, "bad.json")
    assert main(["validate", bad]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["witnesses"]["interior_zero"] == [[2, 2, 0]]
    assert report["witnesses"]["small_ends"] == [[1, 1, 2]]


def test_validate_relaxed_flag(write_diagram, capsys):
    d = write_diagram([[2, 3], [3, 3, 3], [3, 3]], 3, 3)
    assert main(["validate", d]) == 1
    capsys.readouterr()
    assert main(["validate", "--relaxed", d]) == 0


def test_validate_malformed_inputs(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["validate", str(junk)]) == 2
    assert "error:" in capsys.readouterr().err

    even = tmp_path / "even.json"
    even.write_text(json.dumps({"n": 3, "m": 2, "rows": [[3, 3], [3, 3, 3]]}))
    assert main(["validate", str(even)]) == 2
    assert "even" in capsys.readouterr().err

    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()

    for doc, message in (
        ({"n": 3, "m": 1, "rows": [[3, [1.5, 2]]]}, "rational box entries must be ints, got 1.5"),
        *(({"n": 3, "m": m, "rows": []}, f"m must be a positive int, got {m!r}")
          for m in (0, -1, True, 3.0)),
        ({"n": 3, "m": 1, "rows": [3, 3]}, "rows must be a list of lists"),
        ({"n": 3, "m": 1, "rows": "3,3"}, "rows must be a list of lists"),
        # a str beside an int partner never reaches the box-count check
        ({"n": "3", "m": 3, "rows": ALL_THREES}, "n must be a positive int, got '3'"),
        ({"n": 3, "m": "3", "rows": ALL_THREES}, "m must be a positive int, got '3'"),
    ):
        with pytest.raises(MalformedDiagramError, match=f"^{re.escape(message)}$"):
            from_json_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_hostile_inputs_exit_2(write_diagram, tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 3, "m": 1, "rows": [[%s, 3]]}' % ("7" * 5000))
    assert main(["certify", str(huge)]) == 2
    assert "error:" in capsys.readouterr().err

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["validate", str(deep)]) == 2
    assert "error:" in capsys.readouterr().err

    text = diagram_to_json(make_diagram(3, 3, ALL_THREES)).encode()
    for name, data in (("latin1.json", text + b"\xff"), ("bom.json", b"\xef\xbb\xbf" + text),
                       ("nul.json", text + b"\x00")):
        (tmp_path / name).write_bytes(data)
        assert main(["validate", str(tmp_path / name)]) == 2
        assert "error:" in capsys.readouterr().err

    twist = write_diagram([[10**12, 0]], 3, 1, "twist.json")
    assert main(["export", twist, "--format", "pd"]) == 2
    assert "limited to" in capsys.readouterr().err

    d = write_diagram(ALL_THREES, 3, 3)
    missing = tmp_path / "missing" / "cert.json"
    assert main(["certify", d, "--out", str(missing)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert main(["render", d, "--out", str(missing)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_random_refuses_shapes_past_the_box_limit(capsys):
    assert main(["random", "--n", "1000000", "--m", "1000001"]) == 2
    assert "limited to" in capsys.readouterr().err


def test_paths_list_and_count(write_diagram, capsys):
    d = write_diagram(ALL_THREES, 3, 3)
    assert main(["paths", d]) == 0
    assert capsys.readouterr().out.splitlines() == ["1,1,1", "1,2,1"]
    assert main(["paths", "--count", d]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_paths_two_bridge_refusal(write_diagram, capsys):
    d = write_diagram([[3], [3, 3], [3]], 2, 3)
    assert main(["paths", d]) == 1
    err = capsys.readouterr().err
    assert "2-bridge" in err
    assert main(["paths", "--count", d]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_path_on_two_bridge_diagram_gets_the_two_bridge_reason(write_diagram, capsys):
    d = write_diagram([[3], [3, 3], [3]], 2, 3)
    for argv in (["certify", d, "--path", "1,1,1"], ["render", d, "--path", "1,1,1"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a 2-bridge plat (n <= 2) admits no allowable paths\n"


def test_counts_print_exactly_past_the_digit_limit(tmp_path, capsys):
    # 71 502 boxes, within the box limit, and a path count of 4335 digits,
    # past the interpreter's default int-to-text limit of 4300
    d = tmp_path / "long.json"
    d.write_text(diagram_to_json(random_diagram(3, 28801, seed=1)))
    assert main(["paths", "--count", str(d)]) == 0
    counted = capsys.readouterr().out.strip()
    assert main(["info", str(d)]) == 0
    assert f"allowable paths: {counted}\n" in capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(counted) == count_allowable(3, 28801)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(counted) > limit
    # the limit is back in place for parsing
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 3, "m": 1, "rows": [[%s, 3]]}' % ("7" * 5000))
    assert main(["info", str(huge)]) == 2
    assert "error:" in capsys.readouterr().err


def _random_40_by_41(tmp_path, capsys):
    """The 40-pair, 41-row diagram of ``platsurf random --n 40 --m 41 --seed 7``."""
    big = tmp_path / "big.json"
    assert main(["random", "--n", "40", "--m", "41", "--seed", "7", "--out", str(big)]) == 0
    assert capsys.readouterr() == ("", "")
    return str(big)


def _stdout_and_out(argv, out, capsys):
    """Run argv to stdout, then with ``--out``: the exit codes and bytes must
    agree and nothing reach stdout the second time.  Returns the bytes."""
    code = main(argv)
    stdout = capsys.readouterr().out.encode()
    assert main([*argv, "--out", str(out)]) == code and capsys.readouterr().out == ""
    assert out.read_bytes() == stdout, argv
    return stdout


def test_certify_exit_codes(write_diagram, capsys, tmp_path):
    good = write_diagram(ALL_THREES, 3, 3)
    assert main(["certify", good]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["certified"] is True and cert["mode"] == "theorem1"

    out = tmp_path / "cert.json"
    assert main(["certify", good, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["certified"] is True

    small = write_diagram([[2, 3], [3, 3, 3], [3, 3]], 3, 3, "small.json")
    assert main(["certify", small]) == 1
    assert json.loads(capsys.readouterr().out)["refusals"]
    assert main(["certify", "--mode", "relaxed", small]) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "relaxed_remark1"


def test_certify_composite_and_paths(write_diagram, capsys, tmp_path):
    flat = write_diagram([[3, 4, 3]], 4, 1)
    assert main(["certify", "--mode", "composite", flat]) == 0
    capsys.readouterr()
    assert main(["certify", flat]) == 1
    capsys.readouterr()

    tall = write_diagram(ALL_THREES, 3, 3, "tall.json")
    assert main(["certify", tall, "--path", "1,2,1"]) == 0
    assert json.loads(capsys.readouterr().out)["path"] == [1, 2, 1]
    assert main(["certify", tall, "--path", "1,3,1"]) == 2
    assert capsys.readouterr() == ("", "error: row 2: entry 3 outside allowable range 1..2\n")
    assert main(["certify", tall, "--path", "one"]) == 2
    capsys.readouterr()
    # an empty path is a bad path, not the default one
    assert main(["certify", tall, "--path="]) == 2
    assert "bad path ''" in capsys.readouterr().err

    # on 41 rows the rightmost and a zig-zag path certify along the given
    # entries, and a path whose only fault is its last step names that step
    big = _random_40_by_41(tmp_path, capsys)
    for entries in ([38, 39] * 20 + [38], [1, 2] * 20 + [1]):
        argv = ["certify", big, "--path", ",".join(map(str, entries))]
        assert json.loads(_stdout_and_out(argv, tmp_path / "cert.json", capsys))["path"] == entries
    assert main(["certify", big, "--path", ",".join(["1"] * 40 + ["2"])]) == 2
    assert capsys.readouterr() == ("", "error: rows 40->41: step 1->2 not in (0, 1)\n")


def test_certify_unknown_mode_is_usage_error(write_diagram):
    d = write_diagram(ALL_THREES, 3, 3)
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--mode", "remark2", d])
    assert exc.value.code == 2


def test_surgery_exit_codes(write_diagram, capsys):
    d = write_diagram(ALL_THREES, 3, 3)
    assert main(["surgery", d, "--slopes", "3/1"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["mode"] == "corollary2" and cert["certified"] is True

    assert main(["surgery", d, "--slopes", "1/0"]) == 1
    assert json.loads(capsys.readouterr().out)["refusals"]

    assert main(["surgery", d, "--slopes", "3/1,4/1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["surgery", d, "--slopes", "x/y"]) == 2
    capsys.readouterr()
    assert main(["surgery", d, "--slopes", "3/1,"]) == 2
    assert "empty slope at position 2" in capsys.readouterr().err


def test_export_formats(write_diagram, capsys):
    d = write_diagram(ALL_THREES, 3, 3)
    assert main(["export", d, "--format", "braid"]) == 0
    assert capsys.readouterr().out.startswith("s2^3 s4^3")
    assert main(["export", d, "--format", "pd"]) == 0
    assert capsys.readouterr().out.startswith("PD[X(")
    assert main(["export", d]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 3, "m": 3, "rows": ALL_THREES}


def test_export_rational_braid_is_input_error(write_diagram, capsys):
    d = write_diagram([[[1, 3], 3], [3, 3, 3], [3, 3]], 3, 3)
    assert main(["export", d, "--format", "braid"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["export", d]) == 0
    capsys.readouterr()


def test_render_to_file(write_diagram, tmp_path, capsys):
    d = write_diagram(ALL_THREES, 3, 3)
    svg = tmp_path / "d.svg"
    assert main(["render", d, "--out", str(svg)]) == 0
    assert svg.read_bytes().startswith(b"<svg")

    art = tmp_path / "d.txt"
    assert main(["render", d, "--format", "ascii", "--path", "1,1,1", "--out", str(art)]) == 0
    assert "┊" in art.read_text()

    assert main(["render", d, "--path", "5,5,5", "--out", str(tmp_path / "x.svg")]) == 2
    capsys.readouterr()
    assert main(["render", d, "--path=", "--out", str(tmp_path / "y.svg")]) == 2
    assert "bad path ''" in capsys.readouterr().err
    assert not (tmp_path / "y.svg").exists()
    # an empty --out names no file, it does not mean stdout
    for argv in (["certify", d], ["surgery", d, "--slopes", "1/0"], ["export", d],
                 ["render", d], ["random", "--n", "3", "--m", "3"]):
        assert main([*argv, "--out="]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write : "), argv
    # stdout and --out carry the same bytes, on the knot and on 40 x 41
    for argv in (["certify", d], ["surgery", d, "--slopes", "3/1"],
                 ["export", d, "--format", "pd"], ["render", d, "--format", "ascii"],
                 ["random", "--n", "3", "--m", "3", "--seed", "1"]):
        _stdout_and_out(argv, tmp_path / "out", capsys)
    big = _random_40_by_41(tmp_path, capsys)
    for argv in (["certify", big], ["export", big, "--format", "pd"], ["render", big],
                 ["render", big, "--format", "ascii", "--path", ",".join(["1"] * 41)]):
        _stdout_and_out(argv, tmp_path / "out", capsys)


def test_random_roundtrip_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["random", "--n", "4", "--m", "5", "--seed", "11", "--out", str(a)]) == 0
    assert main(["random", "--n", "4", "--m", "5", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["validate", str(a)]) == 0
    capsys.readouterr()
    assert main(["random", "--n", "2", "--m", "3"]) == 2
    capsys.readouterr()


def test_random_require_parity(tmp_path, capsys):
    from platsurf import build_topology, diagram_from_json

    out = tmp_path / "p.json"
    for seed in range(6):
        args = ["random", "--n", "3", "--m", "3", "--seed", str(seed),
                "--require-parity", "--out", str(out)]
        assert main(args) == 0
        k = build_topology(diagram_from_json(out.read_text())).component_count
        assert main(["surgery", str(out), "--slopes", ",".join(["3/1"] * k)]) in (0, 1)
        cert = json.loads(capsys.readouterr().out)
        assert cert["parity_criterion"]["value"] is True


def test_info_output(write_diagram, capsys):
    d = write_diagram(ALL_THREES, 3, 3)
    assert main(["info", d]) == 0
    out = capsys.readouterr().out
    assert "n: 3 (6 strands)" in out
    assert "m: 3 rows" in out
    assert "components: 1" in out
    assert "twist crossings: 21" in out
    assert "allowable paths: 2" in out
    assert "tubed surface genus: 2" in out


def test_internal_fault_exits_3(write_diagram, tmp_path, capsys, monkeypatch):
    d = write_diagram(ALL_THREES, 3, 3)
    out_file = tmp_path / "out"
    # each command faults after it has computed its whole result, which
    # is then neither on stdout nor in an --out file
    for argv, has_out in ((["validate", d], False), (["certify", d], True),
                          (["surgery", d, "--slopes", "3/1"], True),
                          (["export", d, "--format", "pd"], True),
                          (["render", d], True), (["info", d], False)):
        name = f"cmd_{argv[0]}"
        command = getattr(cli, name)

        def crash(*args, command=command):
            command(*args)
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, name, crash)
        assert main([*argv, *(["--out", str(out_file)] if has_out else [])]) == 3, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "internal error: RuntimeError: boom\n", argv
        assert not out_file.exists(), argv


_ENOSPC = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullStdout:
    """A stdout on a full disk: ``write`` or ``flush`` raises ENOSPC."""

    def __init__(self, failing):
        self.failing = failing
        self.buffer = self  # render writes its bytes here

    def write(self, data):
        if self.failing == "write":
            raise _ENOSPC
        return len(data)

    def flush(self):
        if self.failing == "flush":
            raise _ENOSPC


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_stdout_exits_2(write_diagram, capsys, monkeypatch, failing):
    d = write_diagram(ALL_THREES, 3, 3)
    slopes = ",".join(["1/1"] * build_topology(make_diagram(3, 3, ALL_THREES)).component_count)
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    for argv in (["validate", d], ["paths", d], ["paths", "--count", d], ["info", d],
                 ["certify", d], ["surgery", d, "--slopes", slopes], ["export", d],
                 ["render", d], ["random", "--n", "3", "--m", "3"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: cannot write stdout: {_ENOSPC}\n", argv


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_full_device_on_stdout_exits_2(tmp_path):
    src = tmp_path / "d.json"
    src.write_text(diagram_to_json(make_diagram(3, 3, ALL_THREES)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    buffered = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    runs = [(buffered, command) for command in ("validate", "certify", "paths", "render")]
    runs.append((dict(env, PYTHONUNBUFFERED="1"), "validate"))
    for child_env, command in runs:
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "platsurf.cli", command, str(src)],
                stdout=full,
                stderr=subprocess.PIPE,
                env=child_env,
                timeout=60,
            )
        assert proc.returncode == 2, command
        assert proc.stderr == f"error: cannot write stdout: {_ENOSPC}\n".encode(), command


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_by_sigpipe(tmp_path):
    # 4374 paths, more than a pipe buffer holds, so the child is still
    # writing when the reader goes away
    src = tmp_path / "d.json"
    src.write_text(diagram_to_json(random_diagram(4, 15, seed=1)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "platsurf.cli", "paths", str(src)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first == b"1," * 14 + b"1\n"
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_paths_stream_on_many_rows(tmp_path):
    # 2**600 paths: the first line is printed before any list could be built
    src = tmp_path / "d.json"
    src.write_text(diagram_to_json(random_diagram(3, 1201, seed=1)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "platsurf.cli", "paths", str(src)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first == b"1," * 1200 + b"1\n"
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["surgery", "file.json"])  # --slopes is required
    assert exc.value.code == 2
