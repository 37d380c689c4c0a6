"""Compiler model + SPMD lowering (the repo's Fortran D compiler)."""
