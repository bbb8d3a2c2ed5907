"""Work each command used to repeat: the argument parser is built once per
process, an action game's argmax guards once per game, and the utilities
``normalize_payoffs`` shifts start with their vertex values known."""

import json
import random
import subprocess
import sys
import textwrap
from pathlib import Path

from zspersuasion.actions import induced_game
from zspersuasion.scenario import scenario_from_json
from zspersuasion.utilities import PiecewiseAffineUtility, normalize_payoffs

from conftest import FIXTURES
from test_actions import random_action_game

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_built_once_per_process_and_not_at_import(self, tmp_path):
        """In a fresh interpreter, counting the top-level parsers made."""
        script = textwrap.dedent(f"""
            import argparse, contextlib, io, json, sys
            sys.path.insert(0, {str(SRC)!r})
            built = []
            init = argparse.ArgumentParser.__init__
            def counted(self, *args, **kwargs):
                if kwargs.get("prog") == "zspersuasion":
                    built.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counted
            from zspersuasion import cli
            counts = [len(built)]
            fig1 = {str(FIXTURES / "figure1.json")!r}
            for argv in (
                ["validate", fig1],
                ["verify", fig1, "--profile", "both_fully_revealing"],
                ["oracle", "scan", fig1, "--belief-res", "2",
                 "--mass-res", "2", "--max-support", "2"],
                ["emit-plot", fig1, "--edge", "0", "--points", "2"],
            ):
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    counts.append((cli.main(argv), len(built)))
            print(json.dumps(counts))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert counts == [0, [0, 1], [0, 1], [0, 1], [1, 1]]


class TestNormalization:
    def test_shifted_utilities_are_never_evaluated(self, monkeypatch):
        g = induced_game(random_action_game(random.Random(5), 4, 3, 3))
        evaluated, computed = [], []
        call = PiecewiseAffineUtility.__call__
        vertex = PiecewiseAffineUtility._vertex_value

        def counted_call(self, b):
            evaluated.append(self)
            return call(self, b)

        def counted_vertex(self, l):
            computed.append(self)
            return vertex(self, l)

        monkeypatch.setattr(PiecewiseAffineUtility, "__call__", counted_call)
        monkeypatch.setattr(PiecewiseAffineUtility, "_vertex_value", counted_vertex)
        out = normalize_payoffs(g)
        assert all(v.vertex_values == (0,) * 4 for v in out.utilities)
        assert evaluated == []
        shifted = {id(v) for v in out.utilities} - {id(u) for u in g.utilities}
        assert len(shifted) == 3
        assert not shifted & {id(u) for u in computed}
        assert len(computed) == 3 * 4  # each raw utility, once per vertex


class TestSharedGuards:
    def test_induced_senders_share_guards_and_one_decomposition(self):
        rng = random.Random(17)
        for _ in range(20):
            g = induced_game(random_action_game(
                rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 3)
            ))
            first = g.utilities[0]
            for u in g.utilities[1:]:
                assert all(
                    p.guard is q.guard for p, q in zip(u.pieces, first.pieces)
                )
                assert u._decomposition is first._decomposition
            norm = normalize_payoffs(g)
            assert all(
                u._decomposition is first._decomposition for u in norm.utilities
            )

    def test_value_equal_guards_from_a_file_share_one_decomposition(self):
        data = json.loads((FIXTURES / "figure1.json").read_text())
        data["senders"] = 3
        data["payoffs"] = data["payoffs"] * 2
        del data["profiles"]
        u, v, w = scenario_from_json(data).payoffs.utilities
        assert u.pieces[0].guard is not v.pieces[0].guard
        assert u.pieces[0].guard == v.pieces[0].guard
        assert u._decomposition is v._decomposition
        # the structural negation is cut on the overlay's cells instead
        assert w._decomposition is not u._decomposition
