"""The paper's four evaluation programs as parameterized Fortran sources."""
