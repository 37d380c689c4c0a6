"""Simulated iPSC/860-style machine substrate."""
