import pytest

from htsfem.config import load_config, make_geometry, make_materials
from htsfem.mesh import build_stacked_bar_mesh, build_tape_mesh
from htsfem.spaces import build_a_space, build_h_space, build_t_space


@pytest.fixture(scope="session")
def bar_params():
    return make_geometry(load_config({"geometry": {"delta": 0.002}}))


@pytest.fixture(scope="session")
def bar_mesh(bar_params):
    return build_stacked_bar_mesh(bar_params)


@pytest.fixture(scope="session")
def tape_params():
    return make_geometry(load_config({"scenario": "single_tape",
                                      "geometry": {"delta": 0.0005}}))


@pytest.fixture(scope="session")
def tape_mesh(tape_params):
    return build_tape_mesh(tape_params)


@pytest.fixture(scope="session")
def bar_materials_linear():
    # linear conductor at the reference resistivity, mu_r = 1000 above
    return make_materials(load_config({"material": {"e_c": 1.6e-8 * 3e8, "n": 1}}))


@pytest.fixture(scope="session")
def bar_materials_power():
    return make_materials(load_config({}))


@pytest.fixture(scope="session")
def tape_materials_power():
    return make_materials(load_config({"scenario": "single_tape"}))


@pytest.fixture(scope="session")
def bar_spaces_11(bar_mesh):
    h = build_h_space(bar_mesh, 1, "current")
    a = build_a_space(bar_mesh, 1)
    return h, a


@pytest.fixture(scope="session")
def tape_spaces_11(tape_mesh):
    t = build_t_space(tape_mesh, 1, "current")
    a = build_a_space(tape_mesh, 1)
    return t, a
