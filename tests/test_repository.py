"""Code repository tests: locator, snooping, dependencies, recompilation."""

import time

import numpy as np
import pytest

from repro.errors import RepositoryError
from repro.interp.frontend import Invocation
from repro.repository.depgraph import DependencyGraph
from repro.repository.repo import CodeRepository
from repro.repository.snoop import DirectorySnoop
from repro.runtime.values import from_python, to_python

POLY = "function p = poly(x)\np = x.^5 + 3*x + 2;\n"


def invoke(name, *values, nargout=1):
    return Invocation(
        name=name, args=[from_python(v) for v in values], nargout=nargout
    )


def execute(repo, invocation):
    """Serve one invocation: ``repo.execute`` takes its three parts."""
    return repo.execute(invocation.name, invocation.args, invocation.nargout)


class TestLocator:
    def test_miss_then_hit(self):
        repo = CodeRepository()
        repo.add_source(POLY)
        assert repo.locate(invoke("poly", 4.0)) is None
        execute(repo, invoke("poly", 4.0))
        assert repo.locate(invoke("poly", 4.0)) is not None

    def test_value_specialized_versions(self):
        """Figure 3: several compiled versions differing only in type
        assumptions coexist."""
        repo = CodeRepository()
        repo.add_source(POLY)
        execute(repo, invoke("poly", 4.0))
        execute(repo, invoke("poly", np.array([[1.0, 2.0]])))
        assert len(repo.versions_of("poly")) == 2

    def test_safety_check_rejects_wider_invocation(self):
        repo = CodeRepository()
        repo.add_source(POLY)
        execute(repo, invoke("poly", 4.0))  # scalar-specialized
        # A matrix invocation cannot reuse scalar code.
        matrix_args = invoke("poly", np.array([[1.0, 2.0]]))
        located = repo.locate(matrix_args)
        assert located is None

    def test_best_match_prefers_specialized(self):
        repo = CodeRepository()
        repo.add_source(POLY)
        jit = execute(repo, invoke("poly", 4.0))
        repo.speculate_all()  # adds a wide speculative version
        # Exact invocation should still pick the specialized version.
        best = repo.locate(invoke("poly", 4.0))
        assert best is not None and best.mode == "jit"

    def test_speculative_serves_fresh_values(self):
        repo = CodeRepository()
        repo.add_source(POLY)
        repo.speculate_all()
        out = execute(repo, invoke("poly", 5.0))
        assert to_python(out[0]) == 3142.0
        assert repo.stats.jit_compiles == 0  # no JIT was needed

    def test_replace_same_signature(self):
        repo = CodeRepository()
        repo.add_source(POLY)
        first = repo.jit_compile("poly", invoke("poly", 4.0).signature)
        second = repo.jit_compile("poly", invoke("poly", 4.0).signature)
        assert len(repo.versions_of("poly")) == 1

    def test_unknown_function(self):
        repo = CodeRepository()
        with pytest.raises(RepositoryError):
            execute(repo, invoke("nope", 1.0))


class TestRecursion:
    FIB = (
        "function f = fib(n)\nif n < 2, f = n; else "
        "f = fib(n-1) + fib(n-2); end\n"
    )

    def test_recursive_execution(self):
        repo = CodeRepository()
        repo.add_source(self.FIB)
        out = execute(repo, invoke("fib", 12))
        assert to_python(out[0]) == 144.0

    def test_recursion_compiles_once(self):
        """Widened signatures stop per-constant recompilation."""
        repo = CodeRepository()
        repo.add_source(self.FIB)
        execute(repo, invoke("fib", 12))
        assert repo.stats.jit_compiles == 1

    def test_mutual_calls(self):
        repo = CodeRepository()
        repo.add_source(
            "function y = even(n)\nif n == 0, y = 1; else "
            "y = odd(n-1); end\n"
        )
        repo.add_source(
            "function y = odd(n)\nif n == 0, y = 0; else "
            "y = even(n-1); end\n"
        )
        assert to_python(execute(repo, invoke("even", 10))[0]) == 1.0
        assert to_python(execute(repo, invoke("odd", 10))[0]) == 0.0


class TestInliningIntegration:
    def test_helper_inlined(self):
        repo = CodeRepository()
        repo.add_source("function y = helper(x)\ny = x * 2;\n")
        repo.add_source("function y = main(x)\ny = helper(x) + 1;\n")
        out = execute(repo, invoke("main", 5.0))
        assert to_python(out[0]) == 11.0
        obj = repo.versions_of("main")[0]
        assert "call_user" not in obj.source  # call was inlined away

    def test_dependency_invalidation(self):
        repo = CodeRepository()
        repo.add_source("function y = helper(x)\ny = x * 2;\n")
        repo.add_source("function y = main(x)\ny = helper(x) + 1;\n")
        execute(repo, invoke("main", 5.0))
        assert repo.versions_of("main")
        # Changing the helper invalidates main's compiled code.
        repo.add_source("function y = helper(x)\ny = x * 3;\n")
        assert not repo.versions_of("main")
        out = execute(repo, invoke("main", 5.0))
        assert to_python(out[0]) == 16.0


class TestSnooping:
    def test_directory_scan(self, tmp_path):
        (tmp_path / "addone.m").write_text(
            "function y = addone(x)\ny = x + 1;\n"
        )
        repo = CodeRepository()
        names = repo.add_path(tmp_path)
        assert "addone" in names
        assert to_python(execute(repo, invoke("addone", 1.0))[0]) == 2.0

    def test_rescan_picks_up_changes(self, tmp_path):
        path = tmp_path / "g.m"
        path.write_text("function y = g(x)\ny = x + 1;\n")
        repo = CodeRepository()
        repo.add_path(tmp_path)
        assert to_python(execute(repo, invoke("g", 1.0))[0]) == 2.0
        time.sleep(0.02)
        path.write_text("function y = g(x)\ny = x + 10;\n")
        import os

        os.utime(path, (time.time() + 5, time.time() + 5))
        repo.rescan()
        assert to_python(execute(repo, invoke("g", 1.0))[0]) == 11.0

    def test_snoop_reports_added(self, tmp_path):
        (tmp_path / "a.m").write_text("function a\nx = 1;\n")
        snoop = DirectorySnoop()
        snoop.add_path(tmp_path)
        report = snoop.scan()
        assert report.added == ["a"]
        assert not snoop.scan().any  # second scan quiet

    def test_subfunctions_registered(self, tmp_path):
        (tmp_path / "m.m").write_text(
            "function y = m(x)\ny = sub(x);\n\nfunction z = sub(x)\nz = -x;\n"
        )
        snoop = DirectorySnoop()
        snoop.add_path(tmp_path)
        snoop.scan()
        assert set(snoop.functions()) == {"m", "sub"}


class TestDependencyGraph:
    def test_transitive_invalidation(self):
        g = DependencyGraph()
        g.set_dependencies("a", {"b"})
        g.set_dependencies("b", {"c"})
        assert g.dependents_of("c") == {"a", "b", "c"}

    def test_dependency_update_removes_old_edges(self):
        g = DependencyGraph()
        g.set_dependencies("a", {"b"})
        g.set_dependencies("a", {"c"})
        assert g.dependents_of("b") == {"b"}
        assert "a" in g.dependents_of("c")


class TestFallback:
    def test_global_falls_back_to_interpreter(self):
        repo = CodeRepository()
        repo.add_source(
            "function y = withglobal(x)\nglobal g\ny = x + 1;\n"
        )
        out = execute(repo, invoke("withglobal", 1.0))
        assert to_python(out[0]) == 2.0
        assert repo.stats.calls_interpreted == 1
