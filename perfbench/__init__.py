"""End-to-end and per-layer benchmark of the chesswit package."""
