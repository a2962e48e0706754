"""Semi-episodic learning for robot damage recovery on desk-scale worlds."""

__version__ = "0.1.0"
