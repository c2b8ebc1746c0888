"""Every import in the package sits at module level: an import inside a
function or branch hides an import cycle instead of removing it.  No
module imports another module's private name, nor reads a private
attribute of anything but `self`.  The package exports
exactly its public names.  And no group operation keeps a
scalar body beside its block kernel, which would have to be kept equal to
it by hand."""

import ast
import pathlib
import types

import pytest

import lcalim

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lcalim"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == [], f"{path.name}: imports below module level at lines {nested}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name}: imports private names {private}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_attributes_read_off_self(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert reads == [], f"{path.name}: reads private attributes {reads}"


def _called(node) -> set[str]:
    """The names of the functions that a function's body calls."""
    return {
        getattr(call.func, "id", getattr(call.func, "attr", ""))
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def test_group_operations_run_their_block_kernels():
    # a function X or X_value beside its block twin X_block evaluates some
    # *_block kernel, unless the twin is built on it
    tree = ast.parse((PACKAGE / "groups.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    twins = []
    for name, node in functions.items():
        kernel = functions.get(name.removesuffix("_value") + "_block")
        if kernel is None or name in _called(kernel):
            continue
        if not any(called.endswith("_block") for called in _called(node)):
            twins.append(name)
    assert twins == [], f"scalar twins of block kernels in groups.py: {twins}"


# every public name of `lcalim`, written out so that none is dropped or
# added unnoticed; RowDistribution and LevyMeasure are names of DiscreteMeasure
PUBLIC_NAMES = """
    Character CompactSubgroup ConfigError ConvergenceReport DepthOverflowError
    DiscreteMeasure EmpiricalFT EquivalenceReport GroupElement GroupId
    GroupMismatchError LevyMeasure LimitLaw Neighborhood
    QuadraticFormParam RowDistribution Schedule SeededStream TrendVerdict
    TriangularArray VerifySettings __version__ add annihilator_contains arg_of
    bernoulli_array bernoulli_rate char_eval character check_theorem
    compound_growth compound_poisson_law constant convolve cpoisson_ft
    crosscheck_gensym2 cyclic_subgroup cylinder_mass default_characters
    default_neighborhoods dirac_law discrete_measure empirical_ft
    empirical_law_ft from_angle from_base_angle from_digits from_int from_turns
    ft_sup_distance full_subgroup gauss_ft gauss_law general_array
    generating_subgroup genpoisson_ft h_trunc haar_law identity
    iid_symmetric_array in_nbhd infinitesimality_stat lambda_subgroup
    limit_law_ft linear local_inner local_mean measure_ft neg padic_group
    padic_metric point_mass power qform_eval rademacher_array
    row_distribution row_ft_exact scale solenoid_group
    sum_cylinder sum_local_means sum_tail sum_var_g
    symmetric_stat table tail_mass_measure torus_group trend_classify
    trivial_subgroup validate_levy zero_levy zero_measure
""".split()


def test_public_names_stay_exported():
    assert len(PUBLIC_NAMES) == 92
    assert [name for name in PUBLIC_NAMES if not hasattr(lcalim, name)] == []
    exported = {
        name
        for name, value in vars(lcalim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - set(PUBLIC_NAMES)) == []
    assert lcalim.RowDistribution is lcalim.LevyMeasure is lcalim.DiscreteMeasure
