"""The package's public names: ``taskopt.__all__`` and ``taskopt.solvers.__all__``
are part of its stable API."""

import dataclasses

import taskopt as to
import taskopt.solvers

_PUBLIC = [
    "BuildError",
    "Expression",
    "FeasibilityReport",
    "LeafRegistry",
    "Problem",
    "ProblemClass",
    "RobotModel",
    "Solution",
    "Solver",
    "SolverAdapter",
    "SolverOptions",
    "Stats",
    "StructureClass",
    "TaskBuilder",
    "TaskModel",
    "UrdfError",
    "UrdfModel",
    "VariableContainer",
    "atan2",
    "available_solvers",
    "classify",
    "constant",
    "cos",
    "det",
    "dot",
    "evaluate",
    "exp",
    "extract_affine",
    "extract_chain",
    "fixture_path",
    "gradient",
    "hessian",
    "horzcat",
    "interpolate",
    "jacobian",
    "load_urdf",
    "log",
    "norm",
    "parameter",
    "parse_urdf",
    "register_solver",
    "simplify",
    "sin",
    "spatial",
    "sqrt",
    "substitute",
    "sumsqr",
    "tan",
    "variable",
    "vertcat",
]


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(to.__all__) == _PUBLIC
    for name in to.__all__:
        assert hasattr(to, name), name


_SOLVERS_PUBLIC = [
    "ActiveSetQP",
    "QPResult",
    "QuasiNewtonSolver",
    "SQPSolver",
    "Solution",
    "Solver",
    "SolverAdapter",
    "SolverOptions",
    "Stats",
    "available_solvers",
    "interpolate",
    "register_solver",
    "solve_qp",
]


def test_solvers_all_is_pinned_and_every_name_resolves():
    assert sorted(taskopt.solvers.__all__) == _SOLVERS_PUBLIC
    for name in taskopt.solvers.__all__:
        assert hasattr(taskopt.solvers, name), name


def test_qp_result_fields_are_pinned():
    fields = [f.name for f in dataclasses.fields(taskopt.solvers.QPResult)]
    assert fields == [
        "x",
        "y",
        "converged",
        "iterations",
        "termination",
        "objective_history",
        "step_history",
        "z",
    ]
