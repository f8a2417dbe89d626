"""Test oracles written from definitions, sharing no code with what they check."""
