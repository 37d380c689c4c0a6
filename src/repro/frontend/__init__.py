"""Fortran-77 subset front end: lexer, parser, AST, and symbol tables."""
