"""Golden outputs: every recorded output of a fixed corpus, byte for byte.

Each directory under ``tests/golden/`` is one case.  ``case.json``
holds the diagram, the path used for path-dependent outputs (null for
n <= 2) and the slope tuple given to ``certify_haken``.  Every other
file in the directory is one recorded output, named as in ``OUTPUTS``;
``cli.json`` maps command lines (``FILE`` standing for the diagram's
JSON file) to the exit code of ``cli.main``, and ``cli-output.json``
maps the same command lines to the sha256 of their stdout bytes and
their exact stderr (``FILE`` again standing for the file's path).  An
output that is undefined for a case (a braid word of a rational
diagram, say) has no file.  The test recomputes each recorded file and
compares bytes.

``large-shapes.json`` pins, for three seeded ``random_diagram`` shapes far
past the corpus, the exit code and stdout sha256 of ``validate``,
``certify``, ``surgery``, ``info``, ``paths --count``, ``export`` in
every format and ``render`` in both; each diagram is rebuilt from its
seed, so nothing large is checked in.
"""

import hashlib
import json
from pathlib import Path

import pytest

from platsurf import (
    MODE_COMPOSITE,
    MODE_RELAXED,
    MODE_THEOREM1,
    certificate_json,
    certify,
    certify_haken,
    check_hypotheses,
    diagram_to_json,
    haken_certificate_json,
    parse_slopes,
    random_diagram,
    render,
    to_braid_word,
    to_pd_code,
)
from platsurf.certificates import MODES
from platsurf.cli import main
from platsurf.diagram import RELAXED, STRICT, _indented_json, from_json_dict
from platsurf.topology import component_cycles

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
LARGE = json.loads((GOLDEN / "large-shapes.json").read_text())


def _text(s: str) -> bytes:
    return s.encode()


OUTPUTS = {
    "certify-theorem1.json": lambda d, c: _text(certificate_json(certify(d, None, MODE_THEOREM1))),
    "certify-relaxed.json": lambda d, c: _text(certificate_json(certify(d, None, MODE_RELAXED))),
    "certify-composite.json": lambda d, c: _text(certificate_json(certify(d, None, MODE_COMPOSITE))),
    "certify-path.json": lambda d, c: _text(certificate_json(certify(d, c["path"]))),
    "haken.json": lambda d, c: _text(
        haken_certificate_json(certify_haken(d, parse_slopes(c["slopes"])))
    ),
    "braid.txt": lambda d, c: _text(to_braid_word(d).text() + "\n"),
    "pd.txt": lambda d, c: _text(to_pd_code(d).text() + "\n"),
    "render.svg": lambda d, c: render(d, None, "svg"),
    "render.txt": lambda d, c: render(d, None, "ascii"),
    "render-path.svg": lambda d, c: render(d, c["path"], "svg"),
    "render-path.txt": lambda d, c: render(d, c["path"], "ascii"),
    "cycles.txt": lambda d, c: _text(repr(component_cycles(d)) + "\n"),
}


def _load(name: str):
    case = json.loads((GOLDEN / name / "case.json").read_text())
    if case["path"] is not None:
        case["path"] = tuple(case["path"])
    return from_json_dict(case["diagram"]), case


def test_corpus_is_present():
    assert len(CASES) >= 30


@pytest.mark.parametrize("name", CASES)
def test_golden_outputs(name, tmp_path, capsysbinary):
    d, case = _load(name)
    recorded = sorted(p.name for p in (GOLDEN / name).iterdir())
    unknown = set(recorded) - set(OUTPUTS) - {"case.json", "cli.json", "cli-output.json"}
    assert not unknown, f"unrecognised golden files {sorted(unknown)}"
    for fname in recorded:
        if fname in OUTPUTS:
            want = (GOLDEN / name / fname).read_bytes()
            assert OUTPUTS[fname](d, case) == want, f"{name}/{fname} differs"

    diagram_file = tmp_path / "d.json"
    diagram_file.write_text(diagram_to_json(d))
    codes = json.loads((GOLDEN / name / "cli.json").read_text())
    outputs = json.loads((GOLDEN / name / "cli-output.json").read_text())
    assert list(outputs) == list(codes)
    for command, want in codes.items():
        argv = [str(diagram_file) if a == "FILE" else a for a in command.split()]
        assert main(argv) == want, f"{name}: platsurf {command}"
        out, err = capsysbinary.readouterr()
        assert {
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "stderr": err.decode().replace(str(diagram_file), "FILE"),
        } == outputs[command], f"{name}: platsurf {command}"


def test_documents_are_written_as_json_dumps_writes_them():
    for name in CASES:
        d, case = _load(name)
        docs = [check_hypotheses(d, mode).to_dict() for mode in (STRICT, RELAXED)]
        docs += [certify(d, None, mode).to_dict() for mode in MODES]
        if case["path"] is not None:
            docs.append(certify(d, case["path"]).to_dict())
        if (GOLDEN / name / "haken.json").exists():
            docs.append(certify_haken(d, parse_slopes(case["slopes"])).to_dict())
        for doc in docs:
            assert _indented_json(doc) == json.dumps(doc, indent=2), name


@pytest.mark.parametrize("case", LARGE, ids=lambda case: f"{case['n']}x{case['m']}")
def test_large_shapes_keep_their_bytes(case, tmp_path, capsysbinary):
    d = random_diagram(case["n"], case["m"], seed=case["seed"])
    diagram_file = tmp_path / "d.json"
    diagram_file.write_text(diagram_to_json(d))
    for command, want in case["cli"].items():
        argv = [str(diagram_file) if a == "FILE" else a for a in command.split()]
        code = main(argv)
        out, err = capsysbinary.readouterr()
        got = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
        assert (got, err) == (want, b""), f"{case['n']}x{case['m']}: platsurf {command}"
