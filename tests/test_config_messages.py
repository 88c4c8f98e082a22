"""The full text and exit code of every parse-time configuration error.

One config per check: `solidyn validate` and `solidyn run` both exit 2
with exactly the pinned `configuration error: ...` line on stderr, and the
run writes nothing.  The `solidyn run` flags are checked as the config keys
they set, and only the parser and the making of the output directory raise
a ConfigError.  The exact `solidyn list-scenarios` output is pinned too.
These strings are the CLI's contract with its users; a refactor of the
config layer must leave every one of them as it is.
"""

import ast
from pathlib import Path

import pytest

import solidyn
from solidyn import cli

HUGE = "1" + "0" * 400
BUDGET = 16777216
STEPS = "the step count must round to between 1 and 10000000"
WRAP = "the Gausson would wrap around the periodic seam"

# (id, config text, message); {path} stands for the config file's path
CASES = [
    ("unknown-top-level", "scenario: free_gausson\nextra: 1\n",
     "[config].extra: unknown key"),
    ("unknown-physics", "scenario: free_gausson\nphysics:\n  mass: 1.0\n",
     "[physics].mass: unknown key"),
    ("unknown-grid", "scenario: free_gausson\ngrid:\n  spacing: 0.1\n",
     "[grid].spacing: unknown key"),
    ("unknown-potential",
     "scenario: free_gausson\npotential:\n  depth: 1.0\n",
     "[potential].depth: unknown key"),
    ("unknown-initial", "scenario: free_gausson\ninitial:\n  phase: 0.0\n",
     "[initial].phase: unknown key"),
    ("unknown-run", "scenario: free_gausson\nrun:\n  dtx: 1.0e-3\n",
     "[run].dtx: unknown key"),
    ("unknown-output", "scenario: free_gausson\noutput:\n  format: csv\n",
     "[output].format: unknown key"),
    ("unknown-initial-kind",
     "scenario: entangled_pair\ninitial:\n  kind: product\n",
     "[initial].kind: unknown key"),
    ("unknown-initial-wavenumber",
     "scenario: kg_plane_wave\ninitial:\n  wavenumber: 3.0\n",
     "[initial].wavenumber: unknown key"),
    ("section-not-a-mapping", "scenario: free_gausson\nrun: 5\n",
     "[run]: expected a mapping"),
    ("top-level-not-a-mapping", "- scenario\n",
     "{path}: top level must be a mapping"),
    ("missing-file", None,
     "{path}: [Errno 2] No such file or directory: '{path}'"),
    ("malformed-yaml", "scenario: [unclosed\n",
     "{path}: malformed YAML (while parsing a flow sequence\n"
     "  in \"{path}\", line 1, column 11\n"
     "expected ',' or ']', but got '<stream end>'\n"
     "  in \"{path}\", line 2, column 1)"),
    ("scenario-missing", "seed: 1\n", "scenario: required key missing"),
    ("scenario-unknown", "scenario: warp\n",
     "scenario: unknown kind 'warp' (choose from free_gausson, "
     "uniform_field, harmonic_trap, double_slit_dbb, kg_plane_wave, "
     "kg_packet, entangled_pair, equivariance)"),
    ("seed-negative", "scenario: free_gausson\nseed: -1\n",
     "seed: expected a non-negative integer"),
    ("seed-float", "scenario: free_gausson\nseed: 1.5\n",
     "seed: expected a non-negative integer"),
    ("seed-bool", "scenario: free_gausson\nseed: true\n",
     "seed: expected a non-negative integer"),
    ("number-string", "scenario: free_gausson\nphysics:\n  omega0: heavy\n",
     "[physics].omega0: expected a number, got 'heavy'"),
    ("number-bool", "scenario: free_gausson\npotential:\n  e_field: yes\n",
     "[potential].e_field: expected a number, got True"),
    ("number-nan", "scenario: free_gausson\nrun:\n  dt: .nan\n",
     "[run].dt: expected a finite number, got nan"),
    ("number-inf", "scenario: free_gausson\nrun:\n  t_final: .inf\n",
     "[run].t_final: expected a finite number, got inf"),
    ("number-huge-int",
     f"scenario: free_gausson\nphysics:\n  omega0: {HUGE}\n",
     f"[physics].omega0: expected a finite number, got {HUGE}"),
    ("number-string-inf", "scenario: free_gausson\nphysics:\n  f0: '1e999'\n",
     "[physics].f0: expected a finite number, got inf"),
    ("omega0-bound", "scenario: free_gausson\nphysics:\n  omega0: 0\n",
     "[physics].omega0: must satisfy omega0 > 0"),
    ("b-bound", "scenario: free_gausson\nphysics:\n  b: -1.0\n",
     "[physics].b: must satisfy b > 0"),
    ("f0-bound", "scenario: free_gausson\nphysics:\n  f0: 0.0\n",
     "[physics].f0: must satisfy f0 > 0"),
    ("grid-mapping", "scenario: free_gausson\ngrid:\n  length: {a: 1}\n",
     "[grid].length: expected a number or list"),
    ("grid-string", "scenario: free_gausson\ngrid:\n  length: twenty\n",
     "[grid].length: expected a number or list"),
    ("grid-bool", "scenario: free_gausson\ngrid:\n  points: true\n",
     "[grid].points: expected a number or list"),
    ("grid-entry-string", "scenario: free_gausson\ngrid:\n  points: [abc]\n",
     "[grid].points: expected numeric entries"),
    ("grid-nan", "scenario: free_gausson\ngrid:\n  length: .nan\n",
     "[grid].length: expected finite entries, got nan"),
    ("grid-entry-inf", "scenario: free_gausson\ngrid:\n  length: [-.inf]\n",
     "[grid].length: expected finite entries, got -inf"),
    ("grid-points-inf", "scenario: free_gausson\ngrid:\n  points: .inf\n",
     "[grid].points: expected finite entries, got inf"),
    ("grid-length-huge-int",
     f"scenario: free_gausson\ngrid:\n  length: {HUGE}\n",
     f"[grid].length: expected finite entries, got {HUGE}"),
    ("grid-axis-mismatch",
     "scenario: free_gausson\ngrid:\n  points: [64, 64]\n  length: 20.0\n",
     "[grid]: points and length must share axis count"),
    ("grid-axis-count-1d",
     "scenario: double_slit_dbb\ngrid:\n  points: [256, 256]\n"
     "  length: [40.0, 40.0]\n",
     "[grid].points: double_slit_dbb needs a 1D grid, got 2 axes"),
    ("grid-axis-count-2d",
     "scenario: entangled_pair\ngrid:\n  points: 256\n  length: 24.0\n",
     "[grid].points: entangled_pair needs a 2D grid, got 1 axes"),
    ("grid-points-bound", "scenario: free_gausson\ngrid:\n  points: 0\n",
     "[grid].points: must satisfy points > 0"),
    ("grid-memory-budget",
     "scenario: entangled_pair\ngrid:\n  points: [8192, 4096]\n",
     f"[grid].points: total sample count 33554432 exceeds the memory "
     f"budget ({BUDGET})"),
    ("grid-memory-budget-huge-int",
     f"scenario: free_gausson\ngrid:\n  points: {HUGE}\n",
     f"[grid].points: total sample count {HUGE} exceeds the memory "
     f"budget ({BUDGET})"),
    ("grid-length-bound", "scenario: free_gausson\ngrid:\n  length: -20.0\n",
     "[grid].length: must satisfy length > 0"),
    ("grid-points-float", "scenario: free_gausson\ngrid:\n  points: 20.5\n",
     "[grid].points: expected an integer, got 20.5"),
    ("grid-points-entry-float",
     "scenario: entangled_pair\ngrid:\n  points: [64, 64.5]\n",
     "[grid].points: expected an integer, got 64.5"),
    ("potential-kind", "scenario: free_gausson\npotential:\n  kind: coulomb\n",
     "[potential].kind: unknown kind 'coulomb'"),
    ("spring-bound",
     "scenario: free_gausson\npotential:\n  kind: harmonic\n  spring: 0.0\n",
     "[potential].spring: must satisfy spring > 0"),
    ("initial-mode", "scenario: kg_packet\ninitial:\n  mode: standing\n",
     "[initial].mode: expected 'single' or 'counter'"),
    ("packet-sigma-bound",
     "scenario: double_slit_dbb\ninitial:\n  packet_sigma: 0.0\n",
     "[initial].packet_sigma: must be > 0"),
    ("packet-sigma-nan",
     "scenario: double_slit_dbb\ninitial:\n  packet_sigma: .nan\n",
     "[initial].packet_sigma: expected a finite number, got nan"),
    ("soliton-start-inf",
     "scenario: double_slit_dbb\ninitial:\n  soliton_start: .inf\n",
     "[initial].soliton_start: expected a finite number, got inf"),
    ("separation-outside",
     "scenario: double_slit_dbb\ninitial:\n  separation: 100.0\n",
     "[initial].separation: 100.0 puts a packet centre at -50.0, outside "
     "the box [-20, 20)"),
    ("separation-edge",                         # the box is half-open
     "scenario: double_slit_dbb\ninitial:\n  separation: 40.0\n"
     "  soliton_start: 0.0\n",
     "[initial].separation: 40.0 puts a packet centre at 20.0, outside "
     "the box [-20, 20)"),
    ("z1-inf", "scenario: entangled_pair\ninitial:\n  z1: -.inf\n",
     "[initial].z1: expected a finite number, got -inf"),
    ("wavenumber-nan", "scenario: kg_packet\ninitial:\n  wavenumber: .nan\n",
     "[initial].wavenumber: expected a finite number, got nan"),
    ("trajectories-float",
     "scenario: equivariance\ninitial:\n  trajectories: 2000.0\n",
     "[initial].trajectories: expected an integer, got 2000.0"),
    ("trajectories-exponent-string",
     "scenario: equivariance\ninitial:\n  trajectories: 2e3\n",
     "[initial].trajectories: expected an integer, got '2e3'"),
    ("trajectories-bound",
     "scenario: equivariance\ninitial:\n  trajectories: 0\n",
     "[initial].trajectories: must be > 0"),
    ("trajectories-budget",
     f"scenario: equivariance\ninitial:\n  trajectories: {BUDGET + 1}\n",
     f"[initial].trajectories: exceeds the memory budget ({BUDGET})"),
    ("bins-float", "scenario: equivariance\ninitial:\n  bins: 0.5\n",
     "[initial].bins: expected an integer, got 0.5"),
    ("bins-bound", "scenario: equivariance\ninitial:\n  bins: -3\n",
     "[initial].bins: must be > 0"),
    ("bins-budget", f"scenario: equivariance\ninitial:\n  bins: {HUGE}\n",
     f"[initial].bins: exceeds the memory budget ({BUDGET})"),
    ("harmonic-float", "scenario: kg_plane_wave\ninitial:\n  harmonic: 4.5\n",
     "[initial].harmonic: expected an integer, got 4.5"),
    ("harmonic-bound",
     f"scenario: kg_plane_wave\ninitial:\n  harmonic: -{BUDGET + 1}\n",
     f"[initial].harmonic: must satisfy |harmonic| <= {BUDGET}"),
    ("dt-bound", "scenario: free_gausson\nrun:\n  dt: 0.0\n",
     "[run].dt: must satisfy dt > 0"),
    ("t-final-bound", "scenario: free_gausson\nrun:\n  t_final: -1.0\n",
     "[run].t_final: must satisfy t_final > 0"),
    ("steps-round-to-zero",
     "scenario: free_gausson\nrun:\n  dt: 1.0\n  t_final: 0.4\n",
     f"[run].t_final: t_final/dt = 0.4 steps; {STEPS}"),
    ("steps-too-many",
     "scenario: free_gausson\nrun:\n  dt: 1.0e-3\n  t_final: 1.0e+5\n",
     f"[run].t_final: t_final/dt = 1e+08 steps; {STEPS}"),
    ("steps-overflow",
     "scenario: free_gausson\nrun:\n  dt: 1.0e-300\n  t_final: 1.0e+300\n",
     f"[run].t_final: t_final/dt = inf steps; {STEPS}"),
    ("snapshot-every-bound",
     "scenario: free_gausson\nrun:\n  snapshot_every: -1\n",
     "[run].snapshot_every: must be >= 0"),
    ("snapshot-every-float",
     "scenario: free_gausson\nrun:\n  snapshot_every: 1.5\n",
     "[run].snapshot_every: expected an integer, got 1.5"),
    ("cfl-plane-wave",
     "scenario: kg_plane_wave\ngrid:\n  points: 256\n  length: 25.6\n"
     "run:\n  dt: 0.1\n",
     "[run].dt: 0.1 violates the Klein-Gordon CFL bound dt <= 0.5 dx = 0.05"),
    ("cfl-packet", "scenario: kg_packet\nrun:\n  dt: 0.2\n",
     "[run].dt: 0.2 violates the Klein-Gordon CFL bound dt <= 0.5 dx = 0.125"),
    ("gausson-box-double-slit",
     "scenario: double_slit_dbb\nphysics:\n  b: 0.01\n",
     f"[grid].length: 40 is below 10/sqrt(b) = 100; {WRAP}"),
    ("gausson-box-pair", "scenario: entangled_pair\nphysics:\n  b: 0.1\n",
     f"[grid].length: 24 is below 10/sqrt(b) = 31.6228; {WRAP}"),
    ("gausson-box-free",
     "scenario: free_gausson\nphysics:\n  b: 0.01\ngrid:\n  length: 20\n",
     f"[grid].length: 20 is below 10/sqrt(b) = 100; {WRAP}"),
    ("mode-stability",
     "scenario: kg_plane_wave\nphysics:\n  omega0: 30\nrun:\n  dt: 0.09\n",
     "[run].dt: 0.09 puts the plane-wave mode outside the leapfrog "
     "stability region (dt/2) sqrt(k^2 + omega0^2) < 1"),
    ("harmonic-nyquist",
     "scenario: kg_plane_wave\ninitial:\n  harmonic: 200\n",
     "[initial].harmonic: must satisfy |harmonic| < points/2 = 128"),
    ("packet-start-outside",
     "scenario: kg_packet\ninitial:\n  packet_sigma: 500\n",
     "[initial].packet_sigma: 500.0 starts the walks at 250, outside the box "
     "[-128, 128)"),
    ("output-directory-null",
     "scenario: free_gausson\noutput:\n  directory: null\n",
     "[output].directory: expected a non-empty string, got None"),
    ("output-directory-list",
     "scenario: free_gausson\noutput:\n  directory: [a]\n",
     "[output].directory: expected a non-empty string, got ['a']"),
    ("output-directory-empty",
     "scenario: free_gausson\noutput:\n  directory: ''\n",
     "[output].directory: expected a non-empty string, got ''"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_parse_time_check_pins_its_message(tmp_path, monkeypatch, capsys,
                                           text, message):
    # the default output directory is "out", under the working directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.yaml"
    if text is not None:
        path.write_text(text)
    want = f"configuration error: {message.format(path=path)}\n"
    for argv in (["validate", str(path)], ["run", str(path)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", want)
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if text is None else ["config.yaml"])


# (id, `solidyn run` flags, message); {tmp} stands for the working
# directory, which holds the config and a file named `taken`
FLAG_CASES = [
    ("seed", ["--seed", "-1"], "seed: expected a non-negative integer"),
    ("snapshots", ["--snapshots", "-1"],
     "[run].snapshot_every: must be >= 0"),
    ("output-dir-file", ["--output-dir", "{tmp}/taken"],
     "[output].directory: [Errno 17] File exists: '{tmp}/taken'"),
    ("output-dir-under-file", ["--output-dir", "{tmp}/taken/out"],
     "[output].directory: [Errno 20] Not a directory: '{tmp}/taken/out'"),
    ("output-dir-nul", ["--output-dir", "{tmp}/a\0b"],
     "[output].directory: embedded null byte"),
]


@pytest.mark.parametrize("flags, message", [case[1:] for case in FLAG_CASES],
                         ids=[case[0] for case in FLAG_CASES])
def test_run_flag_is_checked_as_its_config_key(tmp_path, monkeypatch, capsys,
                                               flags, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.yaml"
    path.write_text("scenario: free_gausson\n")
    (tmp_path / "taken").write_text("kept\n")
    argv = ["run", str(path)] + [flag.format(tmp=tmp_path) for flag in flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"configuration error: {message.format(tmp=tmp_path)}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml",
                                                          "taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_only_the_parser_and_the_output_directory_raise_a_config_error():
    # parse time is `parse_config` and every scenarios function it names,
    # with the kind checks of KINDS; at run time only the handler of
    # run_scenario's try that makes the OutputSink may raise one
    source = Path(solidyn.__file__).parent
    tree = ast.parse((source / "scenarios.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    kinds = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "KINDS")
    pending = ["parse_config"] + [
        keyword.value.id for call in ast.walk(kinds)
        if isinstance(call, ast.Call) for keyword in call.keywords
        if keyword.arg == "check"]
    parse_time = set()
    while pending:
        name = pending.pop()
        if name in functions and name not in parse_time:
            parse_time.add(name)
            pending.extend(node.id for node in ast.walk(functions[name])
                           if isinstance(node, ast.Name))
    assert {"parse_config_dict", "_read", "_check_gausson_box"} <= parse_time
    allowed = {id(node) for name in parse_time
               for node in ast.walk(functions[name])}
    for block in ast.walk(functions["run_scenario"]):
        if isinstance(block, ast.Try) and any(
                getattr(node.func, "id", None) == "OutputSink"
                for statement in block.body for node in ast.walk(statement)
                if isinstance(node, ast.Call)):
            allowed |= {id(node) for handler in block.handlers
                        for node in ast.walk(handler)}
    raises = [(path.name, node) for path in sorted(source.glob("*.py"))
              for node in ast.walk(tree if path.name == "scenarios.py"
                                   else ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and getattr(node.exc.func, "id", None) == "ConfigError"]
    assert raises
    assert [(name, node.lineno) for name, node in raises
            if id(node) not in allowed] == []


def test_list_scenarios_output_is_pinned(capsys):
    assert cli.main(["list-scenarios"]) == 0
    assert capsys.readouterr().out == (
        "free_gausson       resting soliton: stationarity, norm/energy "
        "checks\n"
        "uniform_field      soliton in a uniform electric field: parabolic "
        "center\n"
        "harmonic_trap      soliton in a harmonic trap: oscillation period\n"
        "double_slit_dbb    two-packet pilot wave driving a coupled soliton\n"
        "kg_plane_wave      Klein-Gordon plane wave: constant mass, slope "
        "k/E\n"
        "kg_packet          Klein-Gordon packet: non-relativistic limit or "
        "tachyon detection (mode: counter)\n"
        "entangled_pair     two-particle nonlocality witness\n"
        "equivariance       Born-rule ensemble transport\n")
