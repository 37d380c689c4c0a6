"""Data layout selection: DLG, 0-1 optimum, and baseline selectors."""
