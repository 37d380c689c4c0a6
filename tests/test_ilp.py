"""0-1 model and solver tests, including a hypothesis-driven cross-check
of both backends against brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import BACKENDS, solve
from repro.ilp.model import MAXIMIZE, MINIMIZE, ModelError, ZeroOneModel


class TestModel:
    def test_add_var_idempotent(self):
        m = ZeroOneModel()
        m.add_var("x")
        m.add_var("x")
        assert m.num_variables == 1

    def test_unknown_variable_in_constraint(self):
        m = ZeroOneModel()
        with pytest.raises(ModelError):
            m.add_constraint({"nope": 1.0}, "<=", 1)

    def test_bad_sense(self):
        m = ZeroOneModel()
        m.add_var("x")
        with pytest.raises(ModelError):
            m.add_constraint({"x": 1.0}, "<", 1)

    def test_bad_objective_sense(self):
        with pytest.raises(ModelError):
            ZeroOneModel(sense="upsidedown")

    def test_objective_accumulates(self):
        m = ZeroOneModel()
        m.add_var("x")
        m.set_objective_coeff("x", 2.0)
        m.set_objective_coeff("x", 3.0)
        assert m.objective["x"] == 5.0

    def test_feasibility_check(self):
        m = ZeroOneModel()
        m.add_var("x")
        m.add_var("y")
        m.add_constraint({"x": 1, "y": 1}, "<=", 1)
        assert m.is_feasible({"x": 1, "y": 0})
        assert not m.is_feasible({"x": 1, "y": 1})

    def test_equality_feasibility(self):
        m = ZeroOneModel()
        m.add_var("x")
        m.add_constraint({"x": 1}, "==", 1)
        assert m.is_feasible({"x": 1})
        assert not m.is_feasible({"x": 0})

    def test_summary(self):
        m = ZeroOneModel(name="demo")
        m.add_var("x")
        assert "demo" in m.summary()
        assert "1 variables" in m.summary()


def brute_force(model):
    """Exhaustive optimum for small models."""
    best = None
    names = model.variables
    for bits in itertools.product((0, 1), repeat=len(names)):
        values = dict(zip(names, bits))
        if not model.is_feasible(values):
            continue
        obj = model.objective_value(values)
        if best is None:
            best = obj
        elif model.sense == MAXIMIZE:
            best = max(best, obj)
        else:
            best = min(best, obj)
    return best


@pytest.mark.parametrize("backend", sorted(BACKENDS))
class TestBackends:
    def test_simple_max(self, backend):
        m = ZeroOneModel(sense=MAXIMIZE)
        for v in "abc":
            m.add_var(v)
        m.add_constraint({"a": 1, "b": 1}, "<=", 1)
        m.set_objective({"a": 3, "b": 5, "c": 1})
        sol = solve(m, backend=backend)
        assert sol.is_optimal
        assert sol.objective == 6.0
        assert sol.values == {"a": 0, "b": 1, "c": 1}

    def test_simple_min(self, backend):
        m = ZeroOneModel(sense=MINIMIZE)
        for v in "ab":
            m.add_var(v)
        m.add_constraint({"a": 1, "b": 1}, ">=", 1)
        m.set_objective({"a": 2, "b": 5})
        sol = solve(m, backend=backend)
        assert sol.objective == 2.0

    def test_infeasible(self, backend):
        m = ZeroOneModel()
        m.add_var("x")
        m.add_constraint({"x": 1}, ">=", 2)
        m.set_objective({"x": 1})
        assert solve(m, backend=backend).status == "infeasible"

    def test_empty_model(self, backend):
        m = ZeroOneModel()
        sol = solve(m, backend=backend)
        assert sol.is_optimal and sol.objective == 0.0

    def test_equality_chain(self, backend):
        # x1 + x2 == 1 three times over a ring forces consistency.
        m = ZeroOneModel(sense=MAXIMIZE)
        for i in range(4):
            m.add_var(f"x{i}")
        for i in range(3):
            m.add_constraint({f"x{i}": 1, f"x{i+1}": 1}, "==", 1)
        m.set_objective({f"x{i}": float(i) for i in range(4)})
        sol = solve(m, backend=backend)
        # Alternating pattern; best picks x1 and x3 (0 + 1 + 0 + 1 form).
        assert sol.values["x1"] == sol.values["x3"]
        assert sol.objective == 4.0

    def test_solution_on_vars(self, backend):
        m = ZeroOneModel(sense=MAXIMIZE)
        m.add_var("x")
        m.set_objective({"x": 1})
        sol = solve(m, backend=backend)
        assert sol.on_vars() == ["x"]


def test_unknown_backend():
    m = ZeroOneModel()
    with pytest.raises(ModelError):
        solve(m, backend="cplex")


class TestCanonicalTieBreaking:
    """Among equal-objective optima, branch-bound must return the
    lexicographically greatest assignment in variable insertion order —
    for selection-shaped models that is the earliest candidate of every
    exactly-one group (regression for fuzzer-surfaced nondeterminism)."""

    @staticmethod
    def _selection_model(costs, reverse_constraints=False):
        m = ZeroOneModel(sense=MINIMIZE)
        constraints = []
        objective = {}
        for p, row in enumerate(costs):
            for c, cost in enumerate(row):
                objective[m.add_var(f"x:{p}:{c}")] = cost
            constraints.append(
                {f"x:{p}:{c}": 1.0 for c in range(len(row))}
            )
        if reverse_constraints:
            constraints.reverse()
        for coeffs in constraints:
            m.add_constraint(coeffs, "==", 1.0)
        m.set_objective(objective)
        return m

    def test_equal_cost_candidates_resolve_to_earliest(self):
        m = self._selection_model([[5.0, 5.0], [3.0, 3.0]])
        sol = solve(m, backend="branch-bound")
        assert sol.objective == 8.0
        assert sol.values == {"x:0:0": 1, "x:0:1": 0,
                              "x:1:0": 1, "x:1:1": 0}

    def test_branch_order_magnitude_does_not_leak(self):
        # Branching visits the |7| variables first, so the first optimum
        # found selects them — the canonical rule must still upgrade to
        # the lexicographically greatest tie (candidate 0 everywhere).
        m = self._selection_model([[5.0, 5.0], [7.0, 7.0]])
        sol = solve(m, backend="branch-bound")
        assert sol.objective == 12.0
        assert sol.values["x:0:0"] == 1
        assert sol.values["x:1:0"] == 1

    def test_stable_under_constraint_reordering(self):
        costs = [[4.0, 4.0, 6.0], [2.0, 2.0, 2.0]]
        a = solve(self._selection_model(costs), backend="branch-bound")
        b = solve(
            self._selection_model(costs, reverse_constraints=True),
            backend="branch-bound",
        )
        assert a.objective == b.objective == 6.0
        assert a.values == b.values

    def test_repeated_solves_identical(self):
        m = self._selection_model([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        first = solve(m, backend="branch-bound")
        for _ in range(3):
            again = solve(m, backend="branch-bound")
            assert again.values == first.values

    def test_maximize_ties_also_canonical(self):
        m = ZeroOneModel(sense=MAXIMIZE)
        for name in ("a", "b"):
            m.add_var(name)
        m.add_constraint({"a": 1, "b": 1}, "==", 1)
        m.set_objective({"a": 4.0, "b": 4.0})
        sol = solve(m, backend="branch-bound")
        assert sol.objective == 4.0
        assert sol.values == {"a": 1, "b": 0}


@st.composite
def random_model(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    sense = draw(st.sampled_from([MINIMIZE, MAXIMIZE]))
    m = ZeroOneModel(sense=sense)
    names = [f"v{i}" for i in range(n)]
    for name in names:
        m.add_var(name)
    m.set_objective(
        {
            name: draw(st.integers(min_value=-5, max_value=5))
            for name in names
        }
    )
    n_cons = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_cons):
        vars_in = draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=n,
                     unique=True)
        )
        coeffs = {
            v: draw(st.integers(min_value=-3, max_value=3)) for v in vars_in
        }
        sense_c = draw(st.sampled_from(["<=", ">=", "=="]))
        rhs = draw(st.integers(min_value=-3, max_value=4))
        m.add_constraint(coeffs, sense_c, rhs)
    return m


@settings(max_examples=60, deadline=None)
@given(model=random_model())
def test_backends_match_brute_force(model):
    expected = brute_force(model)
    for backend in sorted(BACKENDS):
        sol = solve(model, backend=backend)
        if expected is None:
            assert sol.status == "infeasible", backend
        else:
            assert sol.is_optimal, backend
            assert sol.objective == pytest.approx(expected), backend
            assert model.is_feasible(sol.values), backend
