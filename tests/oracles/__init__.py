"""Brute-force reference stores the production data structures are tested against."""
