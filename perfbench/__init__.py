"""End-to-end benchmark of the placement pipeline (see README.md)."""
