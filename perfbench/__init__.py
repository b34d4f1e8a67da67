"""The repository benchmark: see README.md beside this file."""
