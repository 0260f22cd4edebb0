"""End-to-end and per-layer benchmark of SmartML (see README.md)."""
