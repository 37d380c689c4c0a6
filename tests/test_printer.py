"""Unparser tests: targeted cases + round-trip fixpoint properties."""

import pytest

from repro.frontend import ast
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser, parse_source
from repro.frontend.printer import format_expr, format_program, format_stmt
from repro.programs.registry import PROGRAMS


def expr_of(text):
    return Parser(tokenize(text))._parse_expr()


class TestExprPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "a + b * c",
            "(a + b) * c",
            "a - (b - c)",
            "a / b / c",
            "2 ** 3 ** 2",
            "-a + b",
            "a * (-b)",
            "max(a, b) + sqrt(c)",
            "x(i - 1, j + 2)",
        ],
    )
    def test_round_trip_preserves_structure(self, text):
        original = expr_of(text)
        reparsed = expr_of(format_expr(original))
        assert reparsed == original

    def test_relational_uses_dotted_form(self):
        out = format_expr(expr_of("a .lt. b"))
        assert ".lt." in out

    def test_logical_literals(self):
        assert format_expr(ast.LogicalLit(True)) == ".true."

    def test_double_literal_uses_d_exponent(self):
        out = format_expr(ast.RealLit(2.5, is_double=True))
        assert "d" in out

    def test_minimal_parens(self):
        out = format_expr(expr_of("a + b + c"))
        assert "(" not in out


class TestStatementPrinting:
    def test_logical_if_one_line(self):
        src = (
            "program t\n      integer i, j\n"
            "      if (i .gt. 0) j = 1\n      end\n"
        )
        prog = parse_source(src)
        lines = format_stmt(prog.body[0])
        assert len(lines) == 1
        assert lines[0].strip().startswith("if (")

    def test_labeled_do_normalized_to_enddo(self):
        src = (
            "program t\n      real a(4)\n      integer i\n"
            "      do 10 i = 1, 4\n        a(i) = 0.0\n 10   continue\n"
            "      end\n"
        )
        prog = parse_source(src)
        text = "\n".join(format_stmt(prog.body[0]))
        assert "enddo" in text
        assert "continue" not in text


class TestProgramRoundTrip:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_print_parse_fixpoint(self, name):
        """print(parse(x)) is a normal form: printing the reparsed
        program reproduces the same text."""
        spec = PROGRAMS[name]
        kwargs = {"n": 16}
        if spec.has_time_loop:
            kwargs["maxiter"] = 2
        first = format_program(parse_source(spec.source(**kwargs)))
        second = format_program(parse_source(first))
        assert first == second

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_reprint_preserves_phase_structure(self, name):
        """The normalized source analyzes identically."""
        from repro.analysis.phases import partition_phases
        from repro.frontend.symbols import build_symbol_table

        spec = PROGRAMS[name]
        kwargs = {"n": 16}
        if spec.has_time_loop:
            kwargs["maxiter"] = 2
        original = parse_source(spec.source(**kwargs))
        reprinted = parse_source(format_program(original))
        part_a = partition_phases(
            original, build_symbol_table(original)
        )
        part_b = partition_phases(
            reprinted, build_symbol_table(reprinted)
        )
        assert len(part_a) == len(part_b)
        for pa, pb in zip(part_a.phases, part_b.phases):
            assert pa.loop_var == pb.loop_var
            assert pa.arrays == pb.arrays


class TestGeneratedRoundTrip:
    """Property satellite of the QA fuzzer: for every generated program,
    parse(print(ast)) equals the normalized ast and printing is a
    fixpoint."""

    @pytest.mark.parametrize("seed", range(40))
    def test_parse_print_inverts_generator(self, seed):
        from repro.qa.generator import generate_program, normalize_program

        case = generate_program(seed)
        reparsed = parse_source(case.source)
        assert normalize_program(reparsed) == normalize_program(case.program)
        assert format_program(reparsed) == case.source

    def test_round_trip_with_wide_configs(self):
        from repro.qa.generator import (
            GeneratorConfig,
            generate_program,
            normalize_program,
        )

        config = GeneratorConfig(
            max_arrays=6, max_rank=3, max_phases=6, size=12,
            p_control_loop=0.5, p_branch=0.4,
        )
        for seed in range(20):
            case = generate_program(seed, config)
            reparsed = parse_source(case.source)
            assert normalize_program(reparsed) == normalize_program(
                case.program
            ), f"seed {seed}"


class TestHPFWriter:
    @pytest.fixture(scope="class")
    def dynamic_result(self):
        from repro.tool.assistant import AssistantConfig, run_assistant

        source = PROGRAMS["adi"].source(n=200, maxiter=2)
        return run_assistant(source, AssistantConfig(nprocs=16))

    def test_header_directives(self, dynamic_result):
        from repro.tool.hpf_writer import write_hpf

        text = write_hpf(dynamic_result)
        assert "!HPF$ processors procs(16)" in text
        assert "!HPF$ template t(200, 200)" in text
        assert "!HPF$ align x(i, j) with t" in text
        assert "!HPF$ distribute t(" in text

    def test_dynamic_layout_gets_realign_directives(self, dynamic_result):
        from repro.tool.hpf_writer import write_hpf

        assert dynamic_result.is_dynamic
        text = write_hpf(dynamic_result)
        assert "!HPF$ dynamic" in text
        assert "!HPF$ realign" in text

    def test_static_layout_has_no_remaps(self):
        from repro.tool.assistant import AssistantConfig, run_assistant
        from repro.tool.hpf_writer import write_hpf

        source = PROGRAMS["shallow"].source(n=64, maxiter=2)
        result = run_assistant(source, AssistantConfig(nprocs=4))
        text = write_hpf(result)
        assert "realign" not in text
        assert "!HPF$ dynamic" not in text

    def test_replicated_coefficient_uses_star(self):
        from repro.tool.assistant import AssistantConfig, run_assistant
        from repro.tool.hpf_writer import write_hpf

        source = PROGRAMS["erlebacher"].source(n=16)
        result = run_assistant(source, AssistantConfig(nprocs=4))
        text = write_hpf(result)
        # 1-D coefficient arrays align with one template dim, '*' others
        assert "!HPF$ align ax(i) with t(" in text
        align_line = next(
            l for l in text.splitlines() if "align ax(" in l
        )
        assert "*" in align_line

    def test_body_still_parses(self, dynamic_result):
        from repro.tool.hpf_writer import write_hpf

        text = write_hpf(dynamic_result)
        # strip directives: the remainder is valid subset Fortran
        stripped = "\n".join(
            l for l in text.splitlines() if not l.startswith("!HPF$")
        )
        reparsed = parse_source(stripped)
        assert reparsed.name == "adi"

    def test_cli_hpf_command(self, tmp_path, capsys):
        from repro.tool.cli import main

        out = tmp_path / "out.f"
        rc = main(["hpf", "--program", "shallow", "--size", "48",
                   "--procs", "4", "--maxiter", "2", "-o", str(out)])
        assert rc == 0
        assert out.read_text().startswith("program shallow")
