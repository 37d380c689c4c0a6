"""Layout types and distribution search spaces."""
