"""Time-to-solution benchmark for the goldsplit solvers; see README.md."""
