"""Program analysis: references, phase partitioning, PCFG, dependences."""
