"""The package's public names: ``taskopt.__all__`` is part of its stable API."""

import taskopt as to

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
