"""Driver behaviour: configuration, CSV output, exit codes."""

import dataclasses
import hashlib
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hivevem import analysis, cli, lift, quadrature
from hivevem.cli import (
    CSV_COLUMNS,
    ConfigError,
    StudyConfig,
    export,
    main,
    render_table,
    rows_to_csv,
    run_study,
)
from hivevem.lattice import build_mesh, check_level
from hivevem.quadrature import rule


def small_config(**kw):
    return StudyConfig(**{"min_level": 1, "max_level": 3, **kw})


def test_study_config_holds_only_the_study_settings():
    """The study has one problem, one solver path and one lift scheme,
    so its settings are the levels and the lift switch."""
    assert [f.name for f in dataclasses.fields(StudyConfig)] == [
        "min_level", "max_level", "lift_enabled"]


@pytest.mark.parametrize("name, value", [("min_level", 0), ("lift_enabled", "yes")])
def test_config_is_frozen_after_its_checks(name, value):
    """A setting assigned after construction would slip past the checks
    of ``__post_init__``, so assignment raises."""
    config = small_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, value)
    assert getattr(config, name) == getattr(small_config(), name)


def test_config_takes_numpy_integer_levels():
    config = StudyConfig(min_level=np.int64(2), max_level=np.int32(3))
    assert [row.level for row in run_study(config)] == [2, 3]


@pytest.mark.parametrize("lift_enabled", [True, False])
def test_config_takes_a_bool_lift_flag(lift_enabled):
    config = StudyConfig(min_level=3, max_level=3, lift_enabled=lift_enabled)
    (row,) = run_study(config)
    assert (row.e_lift_l2 is not None) is lift_enabled


def test_small_study_rows():
    rows = run_study(small_config())
    assert [r.level for r in rows] == [1, 2, 3]
    assert [r.dofs for r in rows] == [0, 6, 24]
    assert np.allclose([r.h for r in rows], [1.0, 0.5, 0.25])
    # level 1 has no free vertices: the superclose errors are round-off
    assert rows[0].e_ih_l2 <= 1e-12
    assert rows[0].e_ih_h1 <= 1e-12
    assert rows[0].e_ih_linf <= 1e-12
    assert rows[0].r_ih_l2 == 0.0  # sentinel, never log of round-off
    assert rows[1].r_ih_l2 == 0.0  # previous value at round-off
    assert rows[2].r_ih_l2 > 0.0
    # lift disabled: no lift columns anywhere
    assert all(r.e_lift_l2 is None and r.e_lift_h1h is None for r in rows)


def test_lift_columns_start_at_level3():
    rows = run_study(small_config(min_level=2, lift_enabled=True))
    assert rows[0].level == 2 and rows[0].e_lift_l2 is None
    assert rows[1].level == 3 and rows[1].e_lift_l2 > 0
    assert rows[1].e_lift_h1h > 0
    assert rows[1].r_lift_l2 in (None, 0.0)  # first lift row has no rate


def test_csv_format():
    rows = run_study(small_config())
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0].startswith("level,h,dofs,e_ih_l2,r_ih_l2,")
    assert len(lines) == 1 + len(rows)
    # lift cells are empty, not "None"
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[-4:] == ["", "", "", ""]
    assert "None" not in text


def pinned_rows():
    """Hand-built rows: one before the first lift level, then two with
    the lift, whose orders include the 0.0 sentinels and a negative
    value; and a study with no lift anywhere."""
    R = analysis.StudyRow
    lifted = [
        R(level=2, h=0.5, dofs=6, e_ih_l2=1.2345e-14, e_ih_h1=3.5e-13,
          e_ih_linf=9.87654e-15, e_l2=0.0123456),
        R(level=3, h=0.25, dofs=24, e_ih_l2=1.5e-4, e_ih_h1=2.25e-3,
          e_ih_linf=6.0e-5, e_l2=3.1e-3, e_lift_l2=4.56e-4,
          e_lift_h1h=7.891e-3, r_l2=1.99, r_lift_l2=0.0, r_lift_h1h=0.0),
        R(level=4, h=0.125, dofs=114, e_ih_l2=9.4e-6, e_ih_h1=1.43e-4,
          e_ih_linf=3.76e-6, e_l2=7.76e-4, e_lift_l2=2.8e-5,
          e_lift_h1h=9.9e-4, r_ih_l2=3.996, r_ih_h1=3.975,
          r_ih_linf=-0.004, r_l2=1.998, r_lift_l2=4.025, r_lift_h1h=2.995),
    ]
    plain = [
        R(level=1, h=1.0, dofs=0, e_ih_l2=0.0, e_ih_h1=0.0, e_ih_linf=0.0,
          e_l2=0.3),
        R(level=2, h=0.5, dofs=6, e_ih_l2=1.0e-14, e_ih_h1=2.0e-2,
          e_ih_linf=123456.0, e_l2=0.075, r_l2=2.0),
    ]
    return lifted, plain


def test_output_bytes_are_pinned():
    """The CSV and the table of hand-built rows, byte for byte."""
    lifted, plain = pinned_rows()
    assert rows_to_csv(lifted) == (
        'level,h,dofs,e_ih_l2,r_ih_l2,e_ih_h1,r_ih_h1,e_ih_linf,r_ih_linf,e_l2,r_l2,e_lift_l2,r_lift_l2,e_lift_h1h,r_lift_h1h\n'
        '2,5.000e-01,6,1.235e-14,0.000e+00,3.500e-13,0.000e+00,9.877e-15,0.000e+00,1.235e-02,0.000e+00,,,,\n'
        '3,2.500e-01,24,1.500e-04,0.000e+00,2.250e-03,0.000e+00,6.000e-05,0.000e+00,3.100e-03,1.990e+00,4.560e-04,0.000e+00,7.891e-03,0.000e+00\n'
        '4,1.250e-01,114,9.400e-06,3.996e+00,1.430e-04,3.975e+00,3.760e-06,-4.000e-03,7.760e-04,1.998e+00,2.800e-05,4.025e+00,9.900e-04,2.995e+00\n'
    )
    assert render_table(lifted) == (
        'lvl         h    dofs  |Iu-uh|_L2     r  |Iu-uh|_H1     r  |Iu-uh|_oo     r   |u-uh|_L2     r  |u-lift|_L2     r  |u-lift|_H1h     r\n'
        '  2 5.000e-01       6   1.235e-14  0.00   3.500e-13  0.00   9.877e-15  0.00   1.235e-02  0.00                                       \n'
        '  3 2.500e-01      24   1.500e-04  0.00   2.250e-03  0.00   6.000e-05  0.00   3.100e-03  1.99    4.560e-04  0.00     7.891e-03  0.00\n'
        '  4 1.250e-01     114   9.400e-06  4.00   1.430e-04  3.98   3.760e-06 -0.00   7.760e-04  2.00    2.800e-05  4.03     9.900e-04  3.00'
    )
    assert rows_to_csv(plain) == (
        'level,h,dofs,e_ih_l2,r_ih_l2,e_ih_h1,r_ih_h1,e_ih_linf,r_ih_linf,e_l2,r_l2,e_lift_l2,r_lift_l2,e_lift_h1h,r_lift_h1h\n'
        '1,1.000e+00,0,0.000e+00,0.000e+00,0.000e+00,0.000e+00,0.000e+00,0.000e+00,3.000e-01,0.000e+00,,,,\n'
        '2,5.000e-01,6,1.000e-14,0.000e+00,2.000e-02,0.000e+00,1.235e+05,0.000e+00,7.500e-02,2.000e+00,,,,\n'
    )
    assert render_table(plain) == (
        'lvl         h    dofs  |Iu-uh|_L2     r  |Iu-uh|_H1     r  |Iu-uh|_oo     r   |u-uh|_L2     r\n'
        '  1 1.000e+00       0   0.000e+00  0.00   0.000e+00  0.00   0.000e+00  0.00   3.000e-01  0.00\n'
        '  2 5.000e-01       6   1.000e-14  0.00   2.000e-02  0.00   1.235e+05  0.00   7.500e-02  2.00'
    )


def test_reruns_are_byte_identical():
    a = rows_to_csv(run_study(small_config()))
    b = rows_to_csv(run_study(small_config()))
    assert a == b


def test_render_table_shape():
    rows = run_study(small_config())
    table = render_table(rows)
    lines = table.splitlines()
    assert len(lines) == 1 + len(rows)
    assert "|Iu-uh|_L2" in lines[0]


def test_main_study_writes_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = main([
        "study", "--min-level", "1", "--max-level", "2", "--csv", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_main_reports_numerical_failure(indefinite_preconditioner, capsys):
    code = main(["study", "--min-level", "4", "--max-level", "4"])
    assert code == 2
    assert "CG did not converge" in capsys.readouterr().err


def test_numerical_value_error_is_not_a_config_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr(analysis, "norms_superclose", broken)
    assert main(["study", "--min-level", "2", "--max-level", "2"]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["mesh", "solution", "lift"])
def test_export_writes_vtk(tmp_path, what):
    out = tmp_path / f"{what}.vtk"
    level = 3 if what == "lift" else 2
    export(level, what, out)
    head = out.read_text().splitlines()
    assert head[0].startswith("# vtk DataFile")
    assert any(line.startswith("POINTS") for line in head[:6])


@pytest.mark.parametrize("what, sha256", [
    ("mesh", "abc79dc90bafeb979e7dd4c72ecfd1809daf96914c4e3996b37ca7d3c7bdf43f"),
    ("lift", "100630cb4ed1f1baff427c9288da462fdb64d4d1e6a8d3f491afea56b666a205"),
], ids=["mesh", "lift"])
def test_export_bytes_are_pinned(tmp_path, what, sha256):
    """Level-3 files hash as pinned: the mesh as the unblocked writer
    wrote it, the lift with its seam nodes on the lowest index of the
    coarse mesh's patch order."""
    out = tmp_path / f"{what}.vtk"
    export(3, what, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_solution_export_has_the_recovered_centres(tmp_path):
    """The exported error is the study's: fourth order at the centres
    as at the vertices, not the corner mean's second-order bias."""
    out = tmp_path / "solution.vtk"
    export(5, "solution", out)
    lines = out.read_text().splitlines()
    mesh = build_mesh(5)
    at = lines.index("SCALARS error double 1") + 2
    error = np.abs(np.array(lines[at:at + mesh.n_nodes], dtype=float))
    assert error[mesh.centers].max() <= 2.0 * error[mesh.nh_nodes].max()


def test_main_export(tmp_path):
    out = tmp_path / "m.vtk"
    assert main(["export", "--level", "2", "--what", "mesh",
                 "--path", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["study", "export"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_rejected_before_any_mesh(
    command, where, tmp_path, monkeypatch, capsys
):
    """An output path that cannot be opened for writing is a
    configuration error, found before any level is built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh was built before the output path was checked")

    monkeypatch.setattr(cli, "build_mesh", forbidden)
    path = tmp_path / "missing" / "x.csv" if where == "missing-directory" else tmp_path
    argv = (["study", "--max-level", "3", "--csv", str(path)] if command == "study"
            else ["export", "--level", "3", "--what", "solution", "--path", str(path)])
    assert main(argv) == 1
    assert "hivevem: configuration error: cannot write" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_an_empty_csv_path_is_a_config_error(monkeypatch, capsys):
    """``--csv ""`` names no file: refused before any level is built,
    not run and silently left unwritten."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh was built for an empty CSV path")

    monkeypatch.setattr(cli, "build_mesh", forbidden)
    assert main(["study", "--max-level", "3", "--csv", ""]) == 1
    assert "hivevem: configuration error: cannot write" in capsys.readouterr().err


def owner_message(check, *args):
    """The ``ValueError`` message of a library check that owns a rule."""
    with pytest.raises(ValueError) as err:
        check(*args)
    return str(err.value)


#: Bad inputs: a command line for ``main``, or the keywords of a
#: ``StudyConfig`` or the arguments of ``export``; the setting that the
#: message names; and the owner's check with its arguments, or None for
#: a rule that ``cli`` owns, whose message the setting quotes.
BAD_INPUTS = {
    "min-level-2.5": (dict(min_level=2.5), "min-level", (check_level, 2.5)),
    "min-level-True": (dict(min_level=True), "min-level", (check_level, True)),
    "min-level-float64-2": (dict(min_level=np.float64(2)), "min-level",
                            (check_level, np.float64(2))),
    "max-level-True": (dict(max_level=True), "max-level", (check_level, True)),
    "max-level-str-3": (dict(max_level="3"), "max-level", (check_level, "3")),
    "max-level-3.0": (dict(max_level=3.0), "max-level", (check_level, 3.0)),
    "min-level-0": (["study", "--min-level", "0"], "min-level", (check_level, 0)),
    "max-level-11": (["study", "--max-level", "11"], "max-level", (check_level, 11)),
    "export-2.5": ((2.5, "mesh"), "level", (check_level, 2.5)),
    "export-2.0": ((2.0, "mesh"), "level", (check_level, 2.0)),
    "export-True": ((True, "solution"), "level", (check_level, True)),
    "export-str-3": (("3", "mesh"), "level", (check_level, "3")),
    "export-None": ((None, "mesh"), "level", (check_level, None)),
    "export-0": (["export", "--level", "0", "--what", "mesh"], "level",
                 (check_level, 0)),
    "export-11": (["export", "--level", "11", "--what", "solution"], "level",
                  (check_level, 11)),
    "export-movie": ((2, "movie"),
                     "cannot export 'movie'; use mesh, solution or lift", None),
    "min-above-max": (["study", "--min-level", "5", "--max-level", "4"],
                      "min-level <= max-level", None),
    **{f"lift-{flag}": (dict(lift_enabled=flag), "lift must be a bool", None)
       for flag in ("no", 0.0, 1)},
    "study-lift-2": (["study", "--lift", "--max-level", "2"],
                     "max-level with the lift", (check_level, 2, lift.MIN_LIFT_LEVEL)),
    "export-lift-2": (["export", "--what", "lift", "--level", "2"],
                      "level of the lift", (check_level, 2, lift.MIN_LIFT_LEVEL)),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_inputs_are_refused_with_the_owners_message(
    case, tmp_path, monkeypatch, capsys
):
    """Every bad setting is a configuration error found before any level
    is built or the output path is probed; the message names the setting
    and quotes the check of the module that owns the rule:
    ``check_level`` for levels and ``cli`` for the rest.  The output path lies in a directory that does
    not exist, so probing it first would fail with another message."""
    inputs, setting, owner = BAD_INPUTS[case]

    def forbidden(*args, **kwargs):
        raise AssertionError("a mesh was built for a bad configuration")

    monkeypatch.setattr(cli, "build_mesh", forbidden)
    out = tmp_path / "missing" / "out"
    if isinstance(inputs, list):
        option = "--path" if inputs[0] == "export" else "--csv"
        assert main([*inputs, option, str(out)]) == 1
        message = capsys.readouterr().err
        assert message.startswith("hivevem: configuration error: ")
    else:
        with pytest.raises(ConfigError) as err:
            if isinstance(inputs, dict):
                StudyConfig(**inputs)
            else:
                export(*inputs, out)
        message = str(err.value)
    expected = setting if owner is None else f"{setting}: {owner_message(*owner)}"
    assert expected in message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("levels", [dict(min_level=2.5, max_level=3)])
def test_config_rejects_levels_that_are_not_integers(levels):
    """A fractional level is refused even beside a valid one."""
    with pytest.raises(ConfigError, match="must be an integer"):
        StudyConfig(**levels)


@pytest.mark.parametrize("level", [True])
def test_export_rejects_levels_that_are_not_integers_up_front(
    level, tmp_path, monkeypatch
):
    """A bool level is refused for a mesh export too, which needs no
    problem, before the output path is probed or a mesh is built."""
    def forbidden(*args, **kwargs):
        raise AssertionError("export built a mesh for a level that is not an integer")

    monkeypatch.setattr(cli, "build_mesh", forbidden)
    with pytest.raises(ConfigError, match="level must be an integer"):
        export(level, "mesh", tmp_path / "missing" / "m.vtk")


def test_export_lift_rejects_low_level_before_solving(tmp_path, monkeypatch):
    """Neither a mesh nor a solve is started for a lift below its level,
    through ``export`` or the command line."""
    def forbidden(*args, **kwargs):
        raise AssertionError("export allocated before validating the level")

    monkeypatch.setattr(cli, "solve_level", forbidden)
    monkeypatch.setattr(cli, "build_mesh", forbidden)
    out = tmp_path / "lift.vtk"
    with pytest.raises(ConfigError):
        export(2, "lift", out)
    assert main(["export", "--level", "2", "--what", "lift",
                 "--path", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["study", "--quad-load", "4"], ["study", "--tol", "1e-6"],
    ["study", "--maxit", "5"], ["study", "--solver", "chol"],  # the options are gone
    ["study", "--lift", "--lift-scheme", "vertices-only-minnorm"],
    ["study", "--lift", "--lift-scheme", "lattice15-corrected"],
    ["study", "--problem", "hex-sine"],  # the study has one problem
    ["export", "--level", "2", "--what", "mesh", "--path", "m.vtk",
     "--problem", "hex-sine"],
    ["study", "--frobnicate"], [],
], ids=["quad-load", "tol", "maxit", "solver-chol", "lift-scheme",
        "lift-scheme-default", "study-problem", "export-problem",
        "frobnicate", "no-command"])
def test_parser_errors_exit_1(argv, capsys):
    """Arguments that the parser refuses exit 1 with the usage."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert "usage: hivevem" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    """Every ``hivevem`` line of the README's ``sh`` blocks is accepted by
    the real parser, which runs nothing: a stale example fails here."""
    readme = README.read_text()
    commands = [shlex.split(line)[1:]
                for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
                for line in block.splitlines() if line.startswith("hivevem ")]
    assert len(commands) >= 3
    for argv in commands:
        assert cli._build_parser().parse_args(argv).command == argv[0]


def test_readme_library_block_runs():
    """The README's ``python`` block runs as written, at level 5: its
    imports name the modules that define each function, and its CG and
    direct solves agree."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    assert np.max(np.abs(names["x_direct"] - names["x"])) <= 1e-10
    assert np.isfinite([names["e_lift_l2"], names["value"], *names["grad"]]).all()


def test_readme_typical_numbers_match_a_study():
    """README's "Typical numbers" are those of a level-1..7 study with the
    lift, at the precision the README prints: level 7's superclose norms
    and orders, level 5's true L2 error, and the integer orders."""
    text = " ".join(README.read_text().split())
    m = re.search(r"at order 4 \(level 7: (\S+) / (\S+) / (\S+) with orders "
                  r"(\S+)/(\S+)/(\S+)\), the true L² error at order (\d) \(level 5: "
                  r"(\S+)\), and the lifted solution at orders (\d) \(L²\) and (\d) "
                  r"\(broken H¹\)", text)
    assert m is not None
    rows = run_study(StudyConfig(min_level=1, max_level=7, lift_enabled=True))
    quoted = dict(zip(
        [(7, "e_ih_l2"), (7, "e_ih_h1"), (7, "e_ih_linf"), (7, "r_ih_l2"),
         (7, "r_ih_h1"), (7, "r_ih_linf"), (5, "r_l2"), (5, "e_l2"),
         (7, "r_lift_l2"), (7, "r_lift_h1h")],
        m.groups()))
    for (level, name), figure in quoted.items():
        value = getattr(rows[level - 1], name)
        mantissa = figure.split("e")[0]
        digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
        spec = f".{digits}{'e' if 'e' in figure else 'f'}"
        assert float(format(value, spec)) == float(figure), (level, name, value)


def test_writable_check_leaves_the_path_as_it_was(tmp_path):
    out = tmp_path / "x.csv"
    cli.check_writable(out)
    assert not out.exists()
    out.write_text("kept")
    cli.check_writable(out)
    assert out.read_text() == "kept"


def test_study_row_evaluates_the_load_once(hex_sine):
    """The load quadrature, one degree-4 rule per subtriangle, is the
    only evaluation of ``f``: centre recovery reuses its centre rows."""
    points = []

    def f(x, y):
        points.append(np.size(x))
        return hex_sine.f(x, y)

    problem = dataclasses.replace(hex_sine, f=f)
    cli.study_row(4, problem, small_config(min_level=4, max_level=4))
    assert sum(points) == build_mesh(4).n_tris * rule(4).n_points


def test_study_row_evaluates_the_exact_data_in_blocks(
    hex_sine, monkeypatch, tmp_path
):
    """No call of ``u``, ``grad_u`` or ``f`` sees more than
    ``BLOCK_POINTS`` points, set below the number of centres and of
    nodes, and each sees as many points in all as one whole-mesh call
    per use: the nodes and the degree-4 load rule for ``f``'s centre
    correction and load, the mesh vertices for ``u``'s interpolant,
    and the degree-6 rule on the patches once for ``grad_u``, whose
    value part serves all three true errors of a lift level.  The
    solution export evaluates ``u`` at every node in blocks as well."""
    calls = {"u": [], "grad_u": [], "f": []}

    def counted(name):
        fn = getattr(hex_sine, name)

        def call(x, y):
            calls[name].append(np.size(x))
            return fn(x, y)

        return call

    problem = dataclasses.replace(hex_sine, **{k: counted(k) for k in calls})
    level = 6
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", 512)
    assert build_mesh(level).centers.size > 512
    cli.study_row(level, problem, small_config(
        min_level=level, max_level=level, lift_enabled=True
    ))
    mesh = build_mesh(level)
    patch_points = lift.build_patch_grid(mesh).n_patches * 16 * rule(6).n_points
    assert max(max(sizes) for sizes in calls.values()) <= quadrature.BLOCK_POINTS
    assert sum(calls["f"]) == mesh.n_tris * rule(4).n_points + mesh.centers.size
    assert sum(calls["u"]) == mesh.nh_nodes.size
    assert sum(calls["grad_u"]) == patch_points

    calls["u"].clear()
    monkeypatch.setattr(cli, "get_problem", lambda name: problem)
    export(level, "solution", tmp_path / "solution.vtk")
    assert max(calls["u"]) <= quadrature.BLOCK_POINTS
    assert sum(calls["u"]) == mesh.n_nodes


def test_lift_at_nodes_matches_per_patch_definition(
    solved_cache, hex_sine, patch_cubic
):
    """Each node takes the fit of the lowest-index patch that lists it
    as a site: at levels 3-5, the values of that owner table, evaluated
    through ``evaluate_patches``, bit for bit, and patch by patch here."""
    for level in (3, 4, 5):
        mesh, u_h, _, _ = solved_cache(level)
        lifted = lift.lift_solution(u_h, hex_sine, lift.build_patch_grid(mesh))
        grid = lifted.grid
        owner = np.full(mesh.n_nodes, grid.n_patches)
        np.minimum.at(owner, grid.site_nodes, np.arange(grid.n_patches)[:, None])
        assert np.all(owner < grid.n_patches)
        got = cli._lift_at_nodes(lifted)
        assert np.array_equal(
            got, lift.evaluate_patches(lifted, owner, mesh.node_xy)[0])
        for p in range(grid.n_patches):
            sel = np.flatnonzero(owner == p)
            want = patch_cubic(lifted, p, mesh.node_xy[sel])[0]
            assert np.allclose(got[sel], want, rtol=1e-13, atol=1e-15)
